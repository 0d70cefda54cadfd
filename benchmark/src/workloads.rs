//! The five benchmark workloads: what each runs, why it is here, and how its
//! inputs are generated from the seed.
//!
//! The seed reaches only the generators (`MeshConfig::seed`,
//! `MdConfig::seed`, the two-loop generator's LCG state); the program under
//! test sees nothing but the generated [`ProgramInputs`].

use chaos_bench::{compilergen, kernel_bench, md_workload, mesh_workload};
use chaos_bench::{Method, PairLoopWorkload};
use chaos_lang::ProgramInputs;
use chaos_workloads::{edge_flux_kernel, MdConfig, MeshConfig};
use std::time::Instant;

/// `--quick` divides every input size by this (smoke runs only).
pub const QUICK_DIVISOR: usize = 50;

/// Which SPMD engine executes the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The sequential `Machine`: every rank on the driver thread.
    Machine,
    /// The persistent worker pool with a fixed lane count (the driver is
    /// one of the lanes, so `workers` is also the thread count).
    Pool {
        /// Lanes, including the driver's.
        workers: usize,
    },
}

/// What a workload's program computes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `compilergen::program_text(method)` over the synthetic Euler mesh.
    Mesh {
        /// Mesh points.
        nnodes: usize,
        /// Data-mapping method the program text asks for.
        method: Method,
    },
    /// The same template (RCB) over the water-box pair list.
    Md {
        /// Water molecules (three atoms each).
        nmolecules: usize,
    },
    /// `kernel_bench::MULTI_LOOP_PROGRAM`: an edge FORALL then a face
    /// FORALL over one BLOCK node distribution.
    TwoLoop {
        /// Nodes.
        nnode: usize,
        /// Edges (iterations of `L1`).
        nedge: usize,
        /// Faces (iterations of `L2`).
        nface: usize,
    },
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload is in the set (which layer it stresses).
    pub why: &'static str,
    /// Program and input sizes.
    pub shape: Shape,
    /// Simulated processors (ranks).
    pub nprocs: usize,
    /// Execution engine.
    pub engine: Engine,
    /// Whether saved inspector results are reused between sweeps.
    pub reuse: bool,
    /// Time steps per program run: one inside `Executor::run`, the rest as
    /// rounds of `execute_loop` over every FORALL.
    pub steps: usize,
}

/// The workload set. The `why` strings are repeated in `BENCHMARK.json` and
/// the README's workload table.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "mesh53k_rcb_steady",
        why: "Table 2 headline: sweeps are most of the program and the kernel VM most of a sweep, \
              so lang.kernel and sweep-path work must show here",
        shape: Shape::Mesh {
            nnodes: 53_000,
            method: Method::Rcb,
        },
        nprocs: 32,
        engine: Engine::Machine,
        reuse: true,
        steps: 100,
    },
    Spec {
        name: "mesh53k_rsb_setup",
        why: "RSB partitioner dominates and sweeps are a rounding error: geocol and core.coupler \
              work shows here, sweep work must not",
        shape: Shape::Mesh {
            nnodes: 53_000,
            method: Method::Rsb,
        },
        nprocs: 32,
        engine: Engine::Machine,
        reuse: true,
        steps: 10,
    },
    Spec {
        name: "mesh53k_rcb_noreuse",
        why: "Table 1 no-reuse row: schedules are built every sweep instead of used, so the \
              inspector dominates each step",
        shape: Shape::Mesh {
            nnodes: 53_000,
            method: Method::Rcb,
        },
        nprocs: 32,
        engine: Engine::Machine,
        reuse: false,
        steps: 10,
    },
    Spec {
        name: "md648_pool",
        why: "Smallest work per rank on the 2-worker pool engine: hand-off, barrier wait and \
              charge replay have their largest share",
        shape: Shape::Md { nmolecules: 216 },
        nprocs: 16,
        engine: Engine::Pool { workers: 2 },
        reuse: true,
        steps: 1000,
    },
    Spec {
        name: "mesh40k_2loop",
        why: "Only workload with two FORALLs: exercises ReuseRegistry ghost regions, the \
              offset/mapped gathers of incremental schedules and a body without the intrinsic",
        shape: Shape::TwoLoop {
            nnode: 40_000,
            nedge: 120_000,
            nface: 90_000,
        },
        nprocs: 8,
        engine: Engine::Machine,
        reuse: true,
        steps: 100,
    },
];

/// Look a workload up by name.
pub fn spec_by_name(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Inputs of [`kernel_bench::MULTI_LOOP_PROGRAM`], endpoints 0-based.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLoopInputs {
    /// Node state read by both loops.
    pub x: Vec<f64>,
    /// Edge endpoints (loop `L1`).
    pub e1: Vec<u32>,
    /// Edge endpoints (loop `L1`).
    pub e2: Vec<u32>,
    /// Face endpoints (loop `L2`).
    pub f1: Vec<u32>,
    /// Face endpoints (loop `L2`).
    pub f2: Vec<u32>,
}

/// Seeded copy of `kernel_bench::multi_loop_inputs` (which hard-codes its
/// LCG state): edges join a node to one within a bounded span, as in an
/// unstructured mesh numbered with some locality; even faces repeat the
/// pair of the proportionally corresponding edge (ghosts already resident
/// once `L1` has run), odd faces read a narrow neighbourhood around their
/// own BLOCK fraction (new ghosts only from adjacent owners).
pub fn two_loop_inputs(nnode: usize, nedge: usize, nface: usize, seed: u64) -> TwoLoopInputs {
    let mut rng = Lcg(0xBE17_C0DE_u64.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let span = 256usize;
    // The second endpoint: a different node at most `reach` above `a`.
    let partner = |rng: &mut Lcg, a: usize, reach: usize| -> u32 {
        let b = (a + 1 + rng.below(reach)).min(nnode - 1);
        (if b == a { (a + 1) % nnode } else { b }) as u32
    };
    let (mut e1, mut e2) = (Vec::with_capacity(nedge), Vec::with_capacity(nedge));
    for _ in 0..nedge {
        let a = rng.below(nnode);
        e1.push(a as u32);
        e2.push(partner(&mut rng, a, span));
    }
    let (mut f1, mut f2) = (Vec::with_capacity(nface), Vec::with_capacity(nface));
    for k in 0..nface {
        if k % 2 == 0 {
            let j = k * nedge / nface;
            f1.push(e1[j]);
            f2.push(e2[j]);
        } else {
            let a = (k * nnode / nface + rng.below(span)).min(nnode - 1);
            f1.push(a as u32);
            f2.push(partner(&mut rng, a, span / 4));
        }
    }
    TwoLoopInputs {
        x: (0..nnode).map(|i| (i as f64 * 0.7).sin() + 2.0).collect(),
        e1,
        e2,
        f1,
        f2,
    }
}

/// The 64-bit LCG `kernel_bench`'s generators use.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, m: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % m
    }
}

/// What a generator produced.
#[derive(Debug, Clone)]
pub enum Generated {
    /// A single pair-reduction loop (mesh edges or MD pairs).
    Pair(PairLoopWorkload),
    /// The two-loop program's arrays.
    TwoLoop(TwoLoopInputs),
}

impl Generated {
    /// Node (or atom) count.
    pub fn nnodes(&self) -> usize {
        match self {
            Generated::Pair(w) => w.nnodes,
            Generated::TwoLoop(t) => t.x.len(),
        }
    }

    /// The value array every loop reads.
    pub fn x(&self) -> &[f64] {
        match self {
            Generated::Pair(w) => &w.input,
            Generated::TwoLoop(t) => &t.x,
        }
    }

    /// The program's FORALLs in source order, each as its two 0-based
    /// endpoint arrays.
    pub fn loops(&self) -> Vec<(&[u32], &[u32])> {
        match self {
            Generated::Pair(w) => vec![(&w.e1, &w.e2)],
            Generated::TwoLoop(t) => vec![(&t.e1, &t.e2), (&t.f1, &t.f2)],
        }
    }

    /// Loop iterations in one time step (every FORALL once).
    pub fn iters_per_step(&self) -> usize {
        self.loops().iter().map(|(a, _)| a.len()).sum()
    }

    /// Bind the generated arrays to the program's `READ_DATA` names.
    fn program_inputs(&self) -> ProgramInputs {
        let one_based = |v: &[u32]| v.iter().map(|&i| i + 1).collect::<Vec<u32>>();
        match self {
            Generated::Pair(w) => compilergen::program_inputs(w),
            Generated::TwoLoop(t) => ProgramInputs::new()
                .scalar("nnode", t.x.len())
                .scalar("nedge", t.e1.len())
                .scalar("nface", t.f1.len())
                .real("x", t.x.clone())
                .real("y", vec![0.0; t.x.len()])
                .real("z", vec![0.0; t.x.len()])
                .int("e1", one_based(&t.e1))
                .int("e2", one_based(&t.e2))
                .int("f1", one_based(&t.f1))
                .int("f2", one_based(&t.f2)),
        }
    }

    /// Plain serial execution of one time step from zeroed accumulators:
    /// the result arrays by name. Independent of every layer under test —
    /// after `n` steps the program must hold `n` times these values.
    pub fn serial_step(&self) -> Vec<(&'static str, Vec<f64>)> {
        match self {
            Generated::Pair(w) => vec![("y", w.sequential_sweep())],
            Generated::TwoLoop(t) => {
                let mut y = vec![0.0; t.x.len()];
                for (&a, &b) in t.e1.iter().zip(&t.e2) {
                    let (f1, f2) = edge_flux_kernel(t.x[a as usize], t.x[b as usize]);
                    y[a as usize] += f1;
                    y[b as usize] += f2;
                }
                let mut z = vec![0.0; t.x.len()];
                for (&a, &b) in t.f1.iter().zip(&t.f2) {
                    z[a as usize] += t.x[a as usize] * t.x[b as usize];
                }
                vec![("y", y), ("z", z)]
            }
        }
    }
}

/// Everything set-up produces: the program text, its inputs, and the
/// generated arrays (kept for verification and the layer probes).
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Program source.
    pub text: String,
    /// Values bound to the program's sizes and `READ_DATA` arrays.
    pub inputs: ProgramInputs,
    /// The generator's output.
    pub generated: Generated,
    /// Wall seconds the generator alone took (`workloads.generate_s`).
    pub generate_s: f64,
}

/// The set-up `setup_s` measures: input generation, program text and
/// `ProgramInputs` build.
pub fn setup(spec: &Spec, seed: u64, quick: bool) -> Prepared {
    let scale = |n: usize, floor: usize| {
        if quick {
            (n / QUICK_DIVISOR).max(floor)
        } else {
            n
        }
    };
    let start = Instant::now();
    let (generated, text) = match spec.shape {
        Shape::Mesh { nnodes, method } => (
            Generated::Pair(mesh_workload(MeshConfig {
                nnodes: scale(nnodes, 64),
                seed,
                ..MeshConfig::default()
            })),
            compilergen::program_text(method),
        ),
        Shape::Md { nmolecules } => {
            let mut w = md_workload(MdConfig {
                nmolecules: scale(nmolecules, 27),
                seed,
                ..MdConfig::default()
            });
            // The template's body is the edge-flux intrinsic whatever the
            // workload, so the serial and hand-coded references must run
            // that arithmetic too.
            w.kernel = edge_flux_kernel;
            (Generated::Pair(w), compilergen::program_text(Method::Rcb))
        }
        Shape::TwoLoop {
            nnode,
            nedge,
            nface,
        } => (
            Generated::TwoLoop(two_loop_inputs(
                scale(nnode, 64),
                scale(nedge, 64),
                scale(nface, 64),
                seed,
            )),
            kernel_bench::MULTI_LOOP_PROGRAM.to_string(),
        ),
    };
    let generate_s = start.elapsed().as_secs_f64();
    let inputs = generated.program_inputs();
    Prepared {
        text,
        inputs,
        generated,
        generate_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_decides_the_inputs() {
        for spec in &SPECS {
            let a = setup(spec, 7, true);
            let b = setup(spec, 7, true);
            let c = setup(spec, 8, true);
            let arrays = |p: &Prepared| {
                p.generated
                    .loops()
                    .iter()
                    .map(|(a, b)| (a.to_vec(), b.to_vec()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(arrays(&a), arrays(&b), "{}", spec.name);
            assert_ne!(arrays(&a), arrays(&c), "{}", spec.name);
            assert_eq!(a.text, c.text);
        }
    }

    #[test]
    fn two_loop_endpoints_are_in_range_and_distinct() {
        let t = two_loop_inputs(800, 2400, 1800, 3);
        for (a, b) in [(&t.e1, &t.e2), (&t.f1, &t.f2)] {
            assert!(a.iter().zip(b).all(|(&a, &b)| a != b && a < 800 && b < 800));
        }
        assert_eq!((t.e1.len(), t.f1.len()), (2400, 1800));
    }
}
