//! Synthetic molecular-dynamics workload standing in for the paper's CHARMM
//! 648-atom water simulation.
//!
//! 216 water molecules (3 atoms each = 648 atoms) are placed on a jittered
//! lattice inside a periodic box; the non-bonded interaction list contains
//! every atom pair within a cutoff radius. The electrostatic force loop then
//! has exactly the `L2` shape: each pair iteration reads the positions /
//! charges of its two atoms and accumulates equal-and-opposite force
//! contributions — a left-hand-side ADD reduction through an indirection
//! array.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of the water-box generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MdConfig {
    /// Number of water molecules (atoms = 3 × molecules).
    pub nmolecules: usize,
    /// Cutoff radius for the non-bonded pair list, in box-relative units.
    pub cutoff: f64,
    /// Positional jitter as a fraction of the molecular spacing.
    pub jitter: f64,
    /// Shuffle atom numbering (the paper's codes number atoms by molecule,
    /// which is already poorly correlated with space after equilibration).
    pub shuffle: bool,
    /// RNG seed.
    pub seed: u64,
}

impl MdConfig {
    /// The 648-atom (216-water) system of the paper's tables.
    pub fn water_648() -> Self {
        MdConfig {
            nmolecules: 216,
            ..Self::default()
        }
    }

    /// A small system for unit tests.
    pub fn tiny(nmolecules: usize) -> Self {
        MdConfig {
            nmolecules,
            ..Self::default()
        }
    }
}

impl Default for MdConfig {
    fn default() -> Self {
        MdConfig {
            nmolecules: 216,
            cutoff: 0.28,
            jitter: 0.3,
            shuffle: true,
            seed: 0x0A70,
        }
    }
}

/// A water box: atom coordinates, charges and the non-bonded pair list.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterBox {
    /// Atom x coordinates.
    pub xc: Vec<f64>,
    /// Atom y coordinates.
    pub yc: Vec<f64>,
    /// Atom z coordinates.
    pub zc: Vec<f64>,
    /// Partial charges (O ≈ −0.834, H ≈ +0.417 — TIP3P-like).
    pub charge: Vec<f64>,
    /// First atom of each non-bonded pair.
    pub pair1: Vec<u32>,
    /// Second atom of each non-bonded pair.
    pub pair2: Vec<u32>,
    /// The configuration used.
    pub config: MdConfig,
}

impl WaterBox {
    /// Generate a water box. Deterministic per configuration.
    pub fn generate(config: MdConfig) -> Self {
        assert!(config.nmolecules >= 2, "need at least two molecules");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let natoms = 3 * config.nmolecules;

        // Molecules on a cubic lattice filling the unit box.
        let side = (config.nmolecules as f64).cbrt().ceil() as usize;
        let spacing = 1.0 / side as f64;
        let mut xc = Vec::with_capacity(natoms);
        let mut yc = Vec::with_capacity(natoms);
        let mut zc = Vec::with_capacity(natoms);
        let mut charge = Vec::with_capacity(natoms);
        for m in 0..config.nmolecules {
            let i = m % side;
            let j = (m / side) % side;
            let k = m / (side * side);
            let jit = |rng: &mut ChaCha8Rng| (rng.gen::<f64>() - 0.5) * config.jitter * spacing;
            let ox = i as f64 * spacing + jit(&mut rng);
            let oy = j as f64 * spacing + jit(&mut rng);
            let oz = k as f64 * spacing + jit(&mut rng);
            // Oxygen then two hydrogens offset slightly.
            let bond = 0.2 * spacing;
            xc.extend_from_slice(&[ox, ox + bond, ox - bond * 0.5]);
            yc.extend_from_slice(&[oy, oy + bond * 0.3, oy + bond]);
            zc.extend_from_slice(&[oz, oz - bond * 0.2, oz + bond * 0.4]);
            charge.extend_from_slice(&[-0.834, 0.417, 0.417]);
        }

        let mut atom_ids: Vec<u32> = (0..natoms as u32).collect();
        if config.shuffle {
            use rand::seq::SliceRandom;
            atom_ids.shuffle(&mut rng);
            // atom_ids[old] = new label; reorder storage accordingly.
            let mut nxc = vec![0.0; natoms];
            let mut nyc = vec![0.0; natoms];
            let mut nzc = vec![0.0; natoms];
            let mut nch = vec![0.0; natoms];
            for old in 0..natoms {
                let new = atom_ids[old] as usize;
                nxc[new] = xc[old];
                nyc[new] = yc[old];
                nzc[new] = zc[old];
                nch[new] = charge[old];
            }
            xc = nxc;
            yc = nyc;
            zc = nzc;
            charge = nch;
        }

        // Pair list: all pairs within the cutoff (minimum-image periodic
        // distance), excluding intra-molecular pairs when unshuffled is not
        // tracked — a cell-list keeps this O(n).
        let cells = ((1.0 / config.cutoff).floor() as usize).max(1);
        let cell_of =
            |x: f64| -> usize { (((x.rem_euclid(1.0)) * cells as f64) as usize).min(cells - 1) };
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells * cells * cells];
        for a in 0..natoms {
            let c = cell_of(xc[a]) + cells * (cell_of(yc[a]) + cells * cell_of(zc[a]));
            buckets[c].push(a as u32);
        }
        let dist2 = |a: usize, b: usize| -> f64 {
            let mut d2 = 0.0;
            for (pa, pb) in [(&xc, &xc), (&yc, &yc), (&zc, &zc)] {
                let mut d = (pa[a] - pb[b]).abs();
                if d > 0.5 {
                    d = 1.0 - d; // minimum image in the unit box
                }
                d2 += d * d;
            }
            d2
        };
        let cutoff2 = config.cutoff * config.cutoff;
        let mut pair1 = Vec::new();
        let mut pair2 = Vec::new();
        let cells_i = cells as isize;
        for cx in 0..cells_i {
            for cy in 0..cells_i {
                for cz in 0..cells_i {
                    let this = (cx + cells_i * (cy + cells_i * cz)) as usize;
                    for dx in -1..=1isize {
                        for dy in -1..=1isize {
                            for dz in -1..=1isize {
                                let nx = (cx + dx).rem_euclid(cells_i);
                                let ny = (cy + dy).rem_euclid(cells_i);
                                let nz = (cz + dz).rem_euclid(cells_i);
                                let other = (nx + cells_i * (ny + cells_i * nz)) as usize;
                                for &a in &buckets[this] {
                                    for &b in &buckets[other] {
                                        if a < b && dist2(a as usize, b as usize) <= cutoff2 {
                                            pair1.push(a);
                                            pair2.push(b);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        // Neighbouring cells are visited from both sides, so deduplicate.
        let mut pairs: Vec<(u32, u32)> = pair1.into_iter().zip(pair2).collect();
        pairs.sort_unstable();
        pairs.dedup();
        let (pair1, pair2): (Vec<u32>, Vec<u32>) = pairs.into_iter().unzip();

        WaterBox {
            xc,
            yc,
            zc,
            charge,
            pair1,
            pair2,
            config,
        }
    }

    /// Number of atoms.
    pub fn natoms(&self) -> usize {
        self.xc.len()
    }

    /// Number of non-bonded pairs.
    pub fn npairs(&self) -> usize {
        self.pair1.len()
    }

    /// Per-iteration reference rows of the force loop: pair `i` references
    /// atoms `pair1[i]` and `pair2[i]`.
    pub fn pair_iteration_refs(&self) -> Vec<[u32; 2]> {
        self.pair1
            .iter()
            .zip(&self.pair2)
            .map(|(&a, &b)| [a, b])
            .collect()
    }

    /// Per-atom interaction counts (LOAD weights for the partitioner).
    pub fn interaction_counts(&self) -> Vec<f64> {
        let mut c = vec![0.0; self.natoms()];
        for (&a, &b) in self.pair1.iter().zip(&self.pair2) {
            c[a as usize] += 1.0;
            c[b as usize] += 1.0;
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn water_648_has_648_atoms() {
        let w = WaterBox::generate(MdConfig::water_648());
        assert_eq!(w.natoms(), 648);
        assert!(w.npairs() > w.natoms(), "dense pair list expected");
    }

    #[test]
    fn pairs_are_valid_sorted_and_unique() {
        let w = WaterBox::generate(MdConfig::tiny(27));
        let mut seen = std::collections::HashSet::new();
        for (&a, &b) in w.pair1.iter().zip(&w.pair2) {
            assert!(a < b, "pairs stored with a < b");
            assert!((b as usize) < w.natoms());
            assert!(seen.insert((a, b)), "duplicate pair ({a},{b})");
        }
    }

    #[test]
    fn pairs_respect_cutoff() {
        let w = WaterBox::generate(MdConfig::tiny(27));
        let cutoff2 = w.config.cutoff * w.config.cutoff;
        for (&a, &b) in w.pair1.iter().zip(&w.pair2) {
            let (a, b) = (a as usize, b as usize);
            let mut d2 = 0.0;
            for (pa, pb) in [(&w.xc, &w.xc), (&w.yc, &w.yc), (&w.zc, &w.zc)] {
                let mut d = (pa[a] - pb[b]).abs();
                if d > 0.5 {
                    d = 1.0 - d;
                }
                d2 += d * d;
            }
            assert!(d2 <= cutoff2 * 1.0001, "pair ({a},{b}) outside cutoff");
        }
    }

    #[test]
    fn charges_are_neutral_overall() {
        let w = WaterBox::generate(MdConfig::tiny(64));
        let total: f64 = w.charge.iter().sum();
        assert!(total.abs() < 1e-9, "water box should be charge-neutral");
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(
            WaterBox::generate(MdConfig::tiny(27)),
            WaterBox::generate(MdConfig::tiny(27))
        );
    }

    #[test]
    fn iteration_refs_match_pairs() {
        let w = WaterBox::generate(MdConfig::tiny(27));
        let refs = w.pair_iteration_refs();
        assert_eq!(refs.len(), w.npairs());
        assert_eq!(refs[3], [w.pair1[3], w.pair2[3]]);
    }

    #[test]
    fn interaction_counts_sum_to_twice_pairs() {
        let w = WaterBox::generate(MdConfig::tiny(27));
        let total: f64 = w.interaction_counts().iter().sum();
        assert_eq!(total as usize, 2 * w.npairs());
    }

    #[test]
    #[should_panic(expected = "at least two molecules")]
    fn single_molecule_rejected() {
        let _ = WaterBox::generate(MdConfig::tiny(1));
    }
}
