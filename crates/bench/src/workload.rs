//! Adapters from the synthetic workload generators to the "pair loop" form
//! used by every experiment.
//!
//! Both of the paper's templates — the Euler edge sweep and the MD
//! electrostatic force loop — are loops over *pairs of elements* of a node /
//! atom array, accumulating a contribution into both endpoints. The harness
//! represents them uniformly as a [`PairLoopWorkload`].

use chaos_workloads::{edge_flux_kernel, MdConfig, MeshConfig, UnstructuredMesh, WaterBox};

/// Which paper workload an experiment uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The 10K-node unstructured Euler mesh.
    Mesh10k,
    /// The 53K-node unstructured Euler mesh.
    Mesh53k,
    /// The 648-atom water molecular-dynamics system.
    Md648,
}

impl WorkloadKind {
    /// Label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::Mesh10k => "10K Mesh",
            WorkloadKind::Mesh53k => "53K Mesh",
            WorkloadKind::Md648 => "648 Atoms",
        }
    }

    /// Build the workload, optionally scaled down by `scale` (>1 divides the
    /// element counts; used by quick runs and integration tests).
    pub fn build(self, scale: usize) -> PairLoopWorkload {
        let scale = scale.max(1);
        match self {
            WorkloadKind::Mesh10k => mesh_workload(MeshConfig {
                nnodes: (10_000 / scale).max(64),
                ..MeshConfig::default()
            }),
            WorkloadKind::Mesh53k => mesh_workload(MeshConfig {
                nnodes: (53_000 / scale).max(64),
                ..MeshConfig::default()
            }),
            WorkloadKind::Md648 => md_workload(MdConfig {
                nmolecules: (216 / scale).max(8),
                ..MdConfig::default()
            }),
        }
    }
}

/// A pair-reduction loop workload in the form the experiments consume.
#[derive(Debug, Clone)]
pub struct PairLoopWorkload {
    /// Human-readable name.
    pub name: String,
    /// Number of node/atom elements.
    pub nnodes: usize,
    /// Spatial coordinates (3 axes) of each element.
    pub coords: [Vec<f64>; 3],
    /// Per-element computational load estimate (degree / interaction count).
    pub loads: Vec<f64>,
    /// First endpoint of each pair (0-based).
    pub e1: Vec<u32>,
    /// Second endpoint of each pair (0-based).
    pub e2: Vec<u32>,
    /// Per-element input state (Euler state value / atomic charge).
    pub input: Vec<f64>,
    /// The per-pair kernel: maps the endpoint input values to the
    /// contributions accumulated into endpoint 1 and endpoint 2.
    pub kernel: fn(f64, f64) -> (f64, f64),
    /// Approximate compute units per pair iteration (flop estimate charged
    /// to the simulated machine).
    pub ops_per_iteration: f64,
}

impl PairLoopWorkload {
    /// Number of pair iterations.
    pub fn npairs(&self) -> usize {
        self.e1.len()
    }

    /// Per-iteration reference rows (each iteration references its two
    /// endpoints).
    pub fn iteration_refs(&self) -> Vec<[u32; 2]> {
        self.e1
            .iter()
            .zip(&self.e2)
            .map(|(&a, &b)| [a, b])
            .collect()
    }

    /// Sequential reference result of one sweep starting from zero
    /// accumulators (used by correctness checks).
    pub fn sequential_sweep(&self) -> Vec<f64> {
        let mut y = vec![0.0; self.nnodes];
        for (&a, &b) in self.e1.iter().zip(&self.e2) {
            let (f1, f2) = (self.kernel)(self.input[a as usize], self.input[b as usize]);
            y[a as usize] += f1;
            y[b as usize] += f2;
        }
        y
    }
}

/// The MD pair kernel: a symmetric charge-product interaction (a stand-in
/// for the electrostatic force magnitude; the endpoints receive equal and
/// opposite contributions, as in the paper's loop L2).
pub fn md_pair_kernel(q1: f64, q2: f64) -> (f64, f64) {
    let f = q1 * q2;
    (f, -f)
}

/// Build the Euler edge-sweep workload from a mesh configuration.
pub fn mesh_workload(config: MeshConfig) -> PairLoopWorkload {
    let mesh = UnstructuredMesh::generate(config);
    let input: Vec<f64> = mesh
        .xc
        .iter()
        .zip(&mesh.yc)
        .zip(&mesh.zc)
        .map(|((x, y), z)| 1.0 + (x * 3.1).sin() * (y * 2.3).cos() + 0.5 * z)
        .collect();
    PairLoopWorkload {
        name: format!("euler-{}k", mesh.nnodes() / 1000),
        nnodes: mesh.nnodes(),
        loads: mesh.degrees(),
        coords: [mesh.xc.clone(), mesh.yc.clone(), mesh.zc.clone()],
        e1: mesh.end_pt1.clone(),
        e2: mesh.end_pt2.clone(),
        input,
        kernel: edge_flux_kernel,
        ops_per_iteration: 20.0,
    }
}

/// Build the molecular-dynamics force-loop workload from an MD
/// configuration.
pub fn md_workload(config: MdConfig) -> PairLoopWorkload {
    let water = WaterBox::generate(config);
    PairLoopWorkload {
        name: format!("md-{}atoms", water.natoms()),
        nnodes: water.natoms(),
        loads: water.interaction_counts(),
        coords: [water.xc.clone(), water.yc.clone(), water.zc.clone()],
        e1: water.pair1.clone(),
        e2: water.pair2.clone(),
        input: water.charge.clone(),
        kernel: md_pair_kernel,
        ops_per_iteration: 30.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_workload_shapes() {
        let w = mesh_workload(MeshConfig::tiny(500));
        assert_eq!(w.nnodes, 500);
        assert_eq!(w.coords[0].len(), 500);
        assert_eq!(w.loads.len(), 500);
        assert!(w.npairs() > 500);
        assert_eq!(w.iteration_refs().len(), w.npairs());
    }

    #[test]
    fn md_workload_shapes() {
        let w = md_workload(MdConfig::tiny(27));
        assert_eq!(w.nnodes, 81);
        assert!(w.npairs() > 0);
        assert_eq!((w.kernel)(2.0, 3.0), (6.0, -6.0));
    }

    #[test]
    fn sequential_sweep_conserves_for_antisymmetric_kernels() {
        // Both kernels return equal-and-opposite contributions, so the sum of
        // the accumulator is (near) zero.
        for w in [
            mesh_workload(MeshConfig::tiny(300)),
            md_workload(MdConfig::tiny(27)),
        ] {
            let y = w.sequential_sweep();
            let total: f64 = y.iter().sum();
            let magnitude: f64 = y.iter().map(|v| v.abs()).sum();
            assert!(
                total.abs() < 1e-9 * magnitude.max(1.0),
                "{}: {total}",
                w.name
            );
        }
    }

    #[test]
    fn workload_kinds_build_scaled() {
        let w = WorkloadKind::Mesh10k.build(50);
        assert_eq!(w.nnodes, 200);
        let w = WorkloadKind::Md648.build(8);
        assert_eq!(w.nnodes, 81);
        assert_eq!(WorkloadKind::Mesh53k.label(), "53K Mesh");
    }
}
