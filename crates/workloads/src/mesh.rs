//! Synthetic 3-D unstructured meshes standing in for the paper's Euler
//! solver meshes (Mavriplis, 10K and 53K mesh points).
//!
//! The generator builds a jittered 3-D lattice of points inside the unit
//! cube and connects each point to its lattice neighbours plus a subset of
//! face/space diagonals, giving an average degree of ≈ 7 — comparable to the
//! edge/vertex ratio of tetrahedral CFD meshes. Vertices are then renumbered
//! with a seeded random permutation so that a BLOCK distribution of the node
//! arrays cuts a large fraction of the edges, which is exactly the situation
//! the paper's irregular-distribution machinery addresses.

use crate::renumber::{invert_permutation, random_permutation};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the synthetic mesh generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshConfig {
    /// Requested number of mesh points (the generator rounds to the nearest
    /// lattice that holds at least this many and then trims).
    pub nnodes: usize,
    /// Jitter applied to lattice positions, as a fraction of the spacing.
    pub jitter: f64,
    /// Probability of adding each diagonal edge (controls average degree).
    pub diagonal_fraction: f64,
    /// Shuffle the vertex numbering (true for all paper-like experiments).
    pub shuffle: bool,
    /// RNG seed.
    pub seed: u64,
}

impl MeshConfig {
    /// A small mesh for unit tests.
    pub fn tiny(nnodes: usize) -> Self {
        MeshConfig {
            nnodes,
            ..Self::default()
        }
    }
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            nnodes: 1000,
            jitter: 0.25,
            diagonal_fraction: 0.35,
            shuffle: true,
            seed: 0x53C93,
        }
    }
}

/// A synthetic unstructured mesh: node coordinates plus an edge list given as
/// two endpoint arrays (the paper's `end_pt1` / `end_pt2` indirection
/// arrays).
#[derive(Debug, Clone, PartialEq)]
pub struct UnstructuredMesh {
    /// Node x coordinates.
    pub xc: Vec<f64>,
    /// Node y coordinates.
    pub yc: Vec<f64>,
    /// Node z coordinates.
    pub zc: Vec<f64>,
    /// First endpoint of each edge.
    pub end_pt1: Vec<u32>,
    /// Second endpoint of each edge.
    pub end_pt2: Vec<u32>,
    /// The configuration the mesh was generated from.
    pub config: MeshConfig,
}

impl UnstructuredMesh {
    /// Generate a mesh from a configuration. Deterministic per configuration.
    pub fn generate(config: MeshConfig) -> Self {
        assert!(config.nnodes >= 8, "mesh needs at least 8 nodes");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

        // Lattice dimensions: as cubic as possible while holding >= nnodes.
        let side = (config.nnodes as f64).cbrt().ceil() as usize;
        let (nx, ny) = (side, side);
        let nz = config.nnodes.div_ceil(nx * ny);
        let lattice_nodes = nx * ny * nz;

        let spacing = 1.0 / side as f64;
        let mut xc = Vec::with_capacity(config.nnodes);
        let mut yc = Vec::with_capacity(config.nnodes);
        let mut zc = Vec::with_capacity(config.nnodes);
        // Natural (lattice-ordered) ids of the nodes we keep.
        let keep = config.nnodes.min(lattice_nodes);
        for idx in 0..keep {
            let i = idx % nx;
            let j = (idx / nx) % ny;
            let k = idx / (nx * ny);
            let jit = |rng: &mut ChaCha8Rng| (rng.gen::<f64>() - 0.5) * config.jitter * spacing;
            xc.push(i as f64 * spacing + jit(&mut rng));
            yc.push(j as f64 * spacing + jit(&mut rng));
            zc.push(k as f64 * spacing + jit(&mut rng));
        }

        // Edges: 6-neighbour lattice connectivity plus random diagonals.
        let node_at = |i: usize, j: usize, k: usize| -> Option<u32> {
            let idx = k * nx * ny + j * nx + i;
            (i < nx && j < ny && k < nz && idx < keep).then_some(idx as u32)
        };
        let mut end_pt1 = Vec::new();
        let mut end_pt2 = Vec::new();
        for idx in 0..keep {
            let i = idx % nx;
            let j = (idx / nx) % ny;
            let k = idx / (nx * ny);
            let here = idx as u32;
            // Axis neighbours (only "forward" to avoid duplicates).
            for (di, dj, dk) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
                if let Some(n) = node_at(i + di, j + dj, k + dk) {
                    end_pt1.push(here);
                    end_pt2.push(n);
                }
            }
            // Diagonals, sampled.
            for (di, dj, dk) in [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)] {
                if rng.gen::<f64>() < config.diagonal_fraction {
                    if let Some(n) = node_at(i + di, j + dj, k + dk) {
                        end_pt1.push(here);
                        end_pt2.push(n);
                    }
                }
            }
        }

        let mut mesh = UnstructuredMesh {
            xc,
            yc,
            zc,
            end_pt1,
            end_pt2,
            config,
        };
        if config.shuffle {
            mesh.apply_permutation(&random_permutation(keep, config.seed ^ 0x5EED));
        }
        mesh
    }

    /// Number of mesh points.
    pub fn nnodes(&self) -> usize {
        self.xc.len()
    }

    /// Number of edges.
    pub fn nedges(&self) -> usize {
        self.end_pt1.len()
    }

    /// Average vertex degree.
    pub fn average_degree(&self) -> f64 {
        if self.nnodes() == 0 {
            0.0
        } else {
            2.0 * self.nedges() as f64 / self.nnodes() as f64
        }
    }

    /// Renumber the nodes: node `v` becomes `perm[v]`. Coordinates move with
    /// their node; endpoint arrays are rewritten in place (edge order is
    /// unchanged).
    pub fn apply_permutation(&mut self, perm: &[u32]) {
        assert_eq!(perm.len(), self.nnodes(), "permutation length mismatch");
        let inv = invert_permutation(perm);
        let n = self.nnodes();
        let mut xc = vec![0.0; n];
        let mut yc = vec![0.0; n];
        let mut zc = vec![0.0; n];
        for (old, &new) in perm.iter().enumerate() {
            let new = new as usize;
            xc[new] = self.xc[old];
            yc[new] = self.yc[old];
            zc[new] = self.zc[old];
        }
        self.xc = xc;
        self.yc = yc;
        self.zc = zc;
        for e in self.end_pt1.iter_mut().chain(self.end_pt2.iter_mut()) {
            *e = perm[*e as usize];
        }
        let _ = inv; // inverse not needed beyond validation
    }

    /// The per-iteration reference rows of the edge loop (`L2` in the
    /// paper): iteration `i` references nodes `end_pt1[i]` and `end_pt2[i]`.
    pub fn edge_iteration_refs(&self) -> Vec<[u32; 2]> {
        self.end_pt1
            .iter()
            .zip(&self.end_pt2)
            .map(|(&a, &b)| [a, b])
            .collect()
    }

    /// Vertex degrees (used for LOAD-weighted partitioning: the paper notes
    /// the vertex weight of loop L2 "would be proportional to the degree of
    /// the vertex").
    pub fn degrees(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nnodes()];
        for (&a, &b) in self.end_pt1.iter().zip(&self.end_pt2) {
            d[a as usize] += 1.0;
            d[b as usize] += 1.0;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_size() {
        let m = UnstructuredMesh::generate(MeshConfig::tiny(500));
        assert_eq!(m.nnodes(), 500);
        assert!(m.nedges() > 500, "a 3-D mesh has more edges than nodes");
        assert!(m.average_degree() > 3.0 && m.average_degree() < 14.0);
    }

    #[test]
    fn endpoints_are_valid_and_not_self_loops() {
        let m = UnstructuredMesh::generate(MeshConfig::tiny(300));
        for (&a, &b) in m.end_pt1.iter().zip(&m.end_pt2) {
            assert!((a as usize) < m.nnodes());
            assert!((b as usize) < m.nnodes());
            assert_ne!(a, b);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = UnstructuredMesh::generate(MeshConfig::tiny(200));
        let b = UnstructuredMesh::generate(MeshConfig::tiny(200));
        assert_eq!(a, b);
        let c = UnstructuredMesh::generate(MeshConfig {
            seed: 1,
            ..MeshConfig::tiny(200)
        });
        assert_ne!(a, c);
    }

    #[test]
    fn coordinates_stay_in_unit_cube_neighbourhood() {
        let m = UnstructuredMesh::generate(MeshConfig::tiny(400));
        for i in 0..m.nnodes() {
            assert!(m.xc[i] > -0.5 && m.xc[i] < 1.5);
            assert!(m.yc[i] > -0.5 && m.yc[i] < 1.5);
            assert!(m.zc[i] > -0.5 && m.zc[i] < 1.5);
        }
    }

    #[test]
    fn shuffled_numbering_destroys_block_locality() {
        // With shuffle=false, consecutive node numbers are spatial
        // neighbours: a BLOCK split of nodes cuts relatively few edges. With
        // shuffle=true, most edges should connect nodes whose numbers land in
        // different halves.
        let mut cfg = MeshConfig::tiny(1000);
        cfg.shuffle = false;
        let natural = UnstructuredMesh::generate(cfg);
        cfg.shuffle = true;
        let shuffled = UnstructuredMesh::generate(cfg);
        let cut = |m: &UnstructuredMesh| {
            let half = (m.nnodes() / 2) as u32;
            m.end_pt1
                .iter()
                .zip(&m.end_pt2)
                .filter(|&(&a, &b)| (a < half) != (b < half))
                .count()
        };
        assert!(
            cut(&shuffled) > 3 * cut(&natural),
            "shuffled cut {} vs natural cut {}",
            cut(&shuffled),
            cut(&natural)
        );
    }

    #[test]
    fn edge_iteration_refs_match_edges() {
        let m = UnstructuredMesh::generate(MeshConfig::tiny(100));
        let refs = m.edge_iteration_refs();
        assert_eq!(refs.len(), m.nedges());
        assert_eq!(refs[0], [m.end_pt1[0], m.end_pt2[0]]);
    }

    #[test]
    fn degrees_sum_to_twice_edges() {
        let m = UnstructuredMesh::generate(MeshConfig::tiny(150));
        let total: f64 = m.degrees().iter().sum();
        assert_eq!(total as usize, 2 * m.nedges());
    }

    #[test]
    fn permutation_preserves_geometry_per_node() {
        let mut cfg = MeshConfig::tiny(64);
        cfg.shuffle = false;
        let base = UnstructuredMesh::generate(cfg);
        let mut permuted = base.clone();
        let perm = random_permutation(64, 5);
        permuted.apply_permutation(&perm);
        for (old, &new) in perm.iter().enumerate() {
            let new = new as usize;
            assert_eq!(base.xc[old], permuted.xc[new]);
            assert_eq!(base.zc[old], permuted.zc[new]);
        }
        assert_eq!(base.nedges(), permuted.nedges());
    }

    #[test]
    #[should_panic(expected = "at least 8 nodes")]
    fn tiny_meshes_rejected() {
        let _ = UnstructuredMesh::generate(MeshConfig::tiny(2));
    }
}
