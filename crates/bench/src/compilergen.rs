//! The compiler-generated version of the pair-reduction experiment.
//!
//! The same template as [`crate::handcoded`], but written in the Fortran-D
//! like mini-language (exactly the paper's Figure 4 / Figure 5 programs) and
//! executed through `chaos-lang` — i.e. through the code a compiler would
//! generate. Tables 1, 3 and 4 are printed from this path, and so are
//! Table 2's compiler columns, which it compares against the hand-coded
//! ones; the paper's claim is that the compiler-generated code stays within
//! ~10 % of the hand-coded version.

use crate::experiment::{ExperimentConfig, Method, PhaseTimes};
use crate::workload::PairLoopWorkload;
use chaos_dmsim::MachineConfig;
use chaos_lang::{lower_program, parse_program, Executor, LangError, ProgramInputs};
use std::time::Instant;

/// The program template, specialized by data-mapping method. The MD and
/// Euler workloads share the template: both are pair-reduction loops, and
/// both run its `EFLUX` body. So the workload's own `kernel` and
/// `ops_per_iteration` (20 for the mesh, 30 for MD) are read only by the
/// hand-coded driver: this path charges the body's own operation count
/// (`LoopPlan::ops_per_iteration`) per iteration on both workloads, and its
/// MD results are those of the edge-flux kernel, not of `md_pair_kernel`.
pub fn program_text(method: Method) -> String {
    let mapping = match method {
        Method::Block => String::new(),
        Method::Rsb => "\
C$      CONSTRUCT G (nnode, LINK(nedge, end_pt1, end_pt2))
C$      SET distfmt BY PARTITIONING G USING RSB
C$      REDISTRIBUTE reg(distfmt)\n"
            .to_string(),
        Method::Rcb | Method::Inertial => format!(
            "\
C$      CONSTRUCT G (nnode, GEOMETRY(3, xc, yc, zc))
C$      SET distfmt BY PARTITIONING G USING {}
C$      REDISTRIBUTE reg(distfmt)\n",
            if method == Method::Rcb {
                "RCB"
            } else {
                "INERTIAL"
            }
        ),
    };
    format!(
        "\
        REAL*8 x(nnode), y(nnode)
        REAL*8 xc(nnode), yc(nnode), zc(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y, xc, yc, zc WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, xc, yc, zc, end_pt1, end_pt2)
{mapping}\
C Loop over edges involving x, y (the paper's loop L2)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
"
    )
}

/// Bind a workload to the template's `READ_DATA` arrays and size scalars.
pub fn program_inputs(workload: &PairLoopWorkload) -> ProgramInputs {
    ProgramInputs::new()
        .scalar("nnode", workload.nnodes)
        .scalar("nedge", workload.npairs())
        .real("x", workload.input.clone())
        .real("y", vec![0.0; workload.nnodes])
        .real("xc", workload.coords[0].clone())
        .real("yc", workload.coords[1].clone())
        .real("zc", workload.coords[2].clone())
        .int("end_pt1", workload.e1.iter().map(|&v| v + 1).collect())
        .int("end_pt2", workload.e2.iter().map(|&v| v + 1).collect())
}

/// Run the compiler-generated experiment and return its phase breakdown,
/// plus the final accumulator array for verification.
pub fn run_compiler_generated(
    workload: &PairLoopWorkload,
    cfg: &ExperimentConfig,
) -> Result<(PhaseTimes, Vec<f64>), LangError> {
    let wall_start = Instant::now();
    cfg.assert_sweeps();
    let compiled = lower_program(parse_program(&program_text(cfg.method))?)?;
    let label = compiled
        .program
        .loop_labels()
        .last()
        .expect("template has a FORALL")
        .to_string();

    let mut exec = Executor::new(MachineConfig::ipsc860(cfg.nprocs), program_inputs(workload))
        .with_reuse(cfg.reuse);
    exec.run(&compiled)?;
    for _ in 1..cfg.executor_iterations {
        exec.execute_loop(&compiled, &label)?;
    }

    let times = PhaseTimes {
        inspector_runs: exec.report().inspector_runs,
        executor_sweeps: exec.report().loop_sweeps,
        local_fraction: f64::NAN, // not surfaced by the language runtime
        wall_seconds: wall_start.elapsed().as_secs_f64(),
        ..PhaseTimes::from_machine(exec.machine())
    };
    let y = exec
        .real_global("y")
        .ok_or_else(|| LangError::runtime("accumulator array 'y' missing after execution"))?;
    Ok((times, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handcoded::run_handcoded;
    use crate::workload::mesh_workload;
    use chaos_dmsim::Backend;
    use chaos_runtime::Dad;
    use chaos_workloads::MeshConfig;

    fn small_mesh() -> PairLoopWorkload {
        mesh_workload(MeshConfig::tiny(400))
    }

    #[test]
    fn template_parses_for_every_method() {
        for m in [Method::Block, Method::Rcb, Method::Rsb, Method::Inertial] {
            let cp = lower_program(parse_program(&program_text(m)).unwrap()).unwrap();
            assert_eq!(cp.plans.len(), 1);
        }
    }

    #[test]
    fn compiler_generated_result_matches_sequential_reference() {
        let w = small_mesh();
        let cfg = ExperimentConfig::paper(4, Method::Rcb).with_iterations(1);
        let (_, y) = run_compiler_generated(&w, &cfg).unwrap();
        let expected = w.sequential_sweep();
        for (a, b) in y.iter().zip(&expected) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn compiler_generated_is_close_to_hand_coded() {
        // The paper's headline claim: within ~10 % of hand-coded at the 53K /
        // 32-processor, 100-iteration scale. At the tiny scale used in a unit
        // test the compiler path's fixed costs are not yet amortized — its
        // inspector reads each indirection array once and scans four
        // references per iteration to place it, not two — so allow a wider
        // margin here; the full-size `table2` binary reports the real ratio.
        let w = small_mesh();
        let cfg = ExperimentConfig::paper(4, Method::Rcb).with_iterations(40);
        let hand = run_handcoded(&w, &cfg);
        let (compiler, _) = run_compiler_generated(&w, &cfg).unwrap();
        let ratio = compiler.total / hand.total;
        assert!(
            ratio < 1.35 && ratio > 0.7,
            "compiler/hand modeled-time ratio {ratio} (compiler {}, hand {})",
            compiler.total,
            hand.total
        );
        assert_eq!(compiler.executor_sweeps, hand.executor_sweeps);
        assert_eq!(compiler.inspector_runs, hand.inspector_runs);
    }

    /// The template's REDISTRIBUTE moves what its FORALL reads, `x` and
    /// `y`, at the loop: the coordinates the partitioner read keep their
    /// BLOCK layout and values. A second FORALL that reads `xc` moves it
    /// there, once, however often it sweeps.
    #[test]
    fn the_template_moves_only_the_arrays_its_loops_read() {
        let w = small_mesh();
        let template = program_text(Method::Rcb);
        let reads_xc = format!(
            "{template}        FORALL i = 1, nnode\n          REDUCE(ADD, y(i), xc(i))\n        END FORALL\n"
        );
        let block = Some(Dad::Block { n: w.nnodes, p: 4 });
        fn run<B: Backend>(mut exec: Executor<B>, text: &str) -> Executor<B> {
            let cp = lower_program(parse_program(text).unwrap()).unwrap();
            exec.run(&cp).expect("the program runs to the end");
            let last = cp.program.loop_labels().last().unwrap().to_string();
            for _ in 0..2 {
                exec.execute_loop(&cp, &last)
                    .expect("the last loop sweeps again");
            }
            exec
        }
        fn check<B: Backend>(
            engine: impl Fn() -> Executor<B>,
            template: &str,
            reads_xc: &str,
            w: &PairLoopWorkload,
            block: Option<Dad>,
        ) {
            let exec = run(engine(), template);
            assert_eq!(exec.report().arrays_redistributed, 2, "x and y moved");
            let reg = exec.decomposition("reg").map(Dad::of);
            assert!(matches!(reg, Some(Dad::Irregular { .. })));
            assert_eq!(exec.array_dad("x"), reg);
            assert_eq!(exec.array_dad("y"), reg);
            for (axis, name) in ["xc", "yc", "zc"].into_iter().enumerate() {
                assert_eq!(exec.array_dad(name), block, "{name} stays BLOCK");
                assert_eq!(exec.real_global(name).as_ref(), Some(&w.coords[axis]));
            }

            let exec = run(engine(), reads_xc);
            assert_eq!(exec.report().arrays_redistributed, 3, "xc moved once");
            assert_eq!(exec.array_dad("xc"), exec.array_dad("x"));
            assert_eq!(exec.real_global("xc").as_ref(), Some(&w.coords[0]));
            for name in ["yc", "zc"] {
                assert_eq!(exec.array_dad(name), block, "{name} stays BLOCK");
            }
        }
        let cfg = || MachineConfig::ipsc860(4);
        let inputs = || program_inputs(&w);
        check(
            || Executor::new(cfg(), inputs()),
            &template,
            &reads_xc,
            &w,
            block,
        );
        let pooled = || Executor::new_pooled_with_workers(cfg(), 2, inputs());
        check(pooled, &template, &reads_xc, &w, block);
    }

    #[test]
    fn both_drivers_refuse_zero_iterations() {
        // The program runs its FORALL once, so zero sweeps cannot be honoured
        // by this path; both drivers refuse them with the same panic.
        let w = small_mesh();
        let cfg = ExperimentConfig::paper(4, Method::Rcb).with_iterations(0);
        let refusal = |run: &dyn Fn()| {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("zero sweeps must be refused");
            panic.downcast_ref::<&str>().copied().unwrap_or_default()
        };
        let hand = refusal(&|| {
            run_handcoded(&w, &cfg);
        });
        let compiler = refusal(&|| drop(run_compiler_generated(&w, &cfg)));
        assert!(hand.contains("executor_iterations"), "{hand:?}");
        assert_eq!(hand, compiler);
    }

    #[test]
    fn reuse_flag_controls_inspector_runs() {
        let w = small_mesh();
        let cfg = ExperimentConfig::paper(4, Method::Block).with_iterations(5);
        let (with, _) = run_compiler_generated(&w, &cfg).unwrap();
        let (without, _) = run_compiler_generated(&w, &cfg.with_reuse(false)).unwrap();
        assert_eq!(with.inspector_runs, 1);
        assert_eq!(without.inspector_runs, 5);
        assert!(without.inspector > with.inspector);
    }
}
