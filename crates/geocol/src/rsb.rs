//! Recursive spectral bisection (Simon) — the connectivity-based partitioner
//! used in the paper's Table 2 ("a parallelized version of Simon's
//! eigenvalue partitioner") — one split rule over the crate's recursive
//! bisection.
//!
//! # Split rule
//!
//! Order the active set by its components of the subgraph's **Fiedler
//! vector** (the eigenvector of the graph Laplacian `L` belonging to the
//! second-smallest eigenvalue) and cut at the weighted median. The Fiedler
//! vector is the smallest Ritz vector of a **Lanczos** run on `L` with the
//! constant vector (the trivial eigenvector) projected out of every Lanczos
//! vector — Simon's method (Pothen, Simon & Liou, SIAM J. Matrix Anal.
//! Appl. 11(3), 1990). There is no stored Krylov basis and no
//! reorthogonalization, so the run is **two passes**:
//!
//! 1. The recurrence runs, keeping only the tridiagonal's scalars (`α`,
//!    `β` and each step's projected-out mean). Every 4 steps the driver
//!    takes the smallest eigenpair `(θ, s)` of the tridiagonal `T_k` —
//!    Sturm bisection for `θ`, inverse iteration for `s`, O(k) scalar
//!    work — and stops once the Ritz residual `‖Lx − θx‖ = β_k·|s_k|` is
//!    within [`RsbPartitioner::tolerance`] of the spectral bound
//!    `2·max_degree`, or when `β` vanishes (the Krylov space is invariant:
//!    an edgeless subgraph stops at step 1).
//! 2. The recurrence is replayed from the stored scalars, so every Lanczos
//!    vector is bit-identical to pass 1's, and the Ritz vector
//!    `x = Σ s_j q_j` is accumulated on the way.
//!
//! Live memory is five `m + 1`-long buffers (`q`, `q₋`, `u`, `q₊`, `x`),
//! allocated once per bisection and rotated between scans; a stored basis
//! would cost `k`. Slot `m` of each is a `0.0` no scan writes: the operand
//! of the matvec's padding.
//!
//! # Rank-parallel passes
//!
//! Both passes dominate the whole preprocessing pipeline, so their inner
//! loops run **rank-parallel** through the [`RankScans`] executor (the
//! PARTI/CHAOS partitioners themselves ran data-parallel on the nodes —
//! this is the reproduction's version of that). A pass-1 step is three
//! scans:
//!
//! * the **sparse matvec** `u = Lq`, a [`map_scan`] charging
//!   `2 + 2·avg_degree` ops per vertex (the diagonal's multiply and store, a
//!   load and a subtract per edge). The Laplacian is stored sliced ELLPACK,
//!   8 rows per slice with each slice's neighbour lists column-major and
//!   padded to its longest row, so a slice's 8 rows run as 8 independent
//!   subtraction chains with no data-dependent branch; the padding
//!   subtracts `+0.0`, which changes no bit and is not charged;
//! * one width-9 [`block_scan`] of `Σu, Σq, Σq₋, Σu², Σq², Σq₋², Σuq, Σuq₋,
//!   Σqq₋` (15 ops per vertex), from which `α = qᵀu`, the mean of
//!   `w = u − αq − β₋q₋` and `β = ‖w − mean‖` follow by algebra;
//! * the **update** `q₊ = (w − mean)/β`, a [`map_scan`] (6 ops per vertex).
//!
//! A pass-2 step is the same matvec and update plus the accumulation
//! `x ← x + s_j q_j`, one more [`map_scan`] (2 ops per vertex). The sorted
//! set's **total load** is one more [`block_scan`].
//!
//! Only O(k) scalar work, building the sliced Laplacian, the start vector
//! and the sort stay on the driver between scans. Because maps write
//! disjoint items and reductions fold fixed blocks, the Fiedler vector — and
//! therefore the partitioning — is bit-identical for every rank count and
//! engine.
//!
//! # Modeled cost
//!
//! [`Partitioner::cost_estimate`] is a fixed calibration: 200 steps of
//! `n + 2e` per recursion level, one to two orders of magnitude above RCB
//! as in Table 2 (258 s against 1.6 s on the 53K mesh). The coupler deducts
//! what the scans charged from it and charges the remainder; on the meshes
//! here the scans charge more than the estimate, so the modeled partitioner
//! time is the scans' charge: it grows with the Lanczos steps a bisection
//! takes to converge.

use crate::geocol::GeoCoL;
use crate::partition::{
    block_scan, left_target, load_prefix, map_scan, recursive_bisection, sort_by_key, Partitioner,
    Partitioning, RankScans,
};

/// Lanczos steps per recursion level that [`Partitioner::cost_estimate`]
/// assumes: the model's calibration, independent of the step cap and the
/// tolerance.
const CALIBRATION_STEPS: f64 = 200.0;

/// A Ritz pair is taken from the tridiagonal once every this many steps.
const RITZ_EVERY: usize = 4;

/// Recursive spectral bisection partitioner.
///
/// A program selects it by name (`USING RSB`), which takes the
/// [`Default`] step cap and tolerance. The two fields stay settable for
/// callers that drive the partitioner directly: tests cap the Lanczos
/// runtime with them on graphs where the default would dominate the run.
#[derive(Debug, Clone, Copy)]
pub struct RsbPartitioner {
    /// Lanczos steps per bisection, at most (the subgraph's size minus one
    /// bounds it too).
    pub max_steps: usize,
    /// Convergence tolerance: the Ritz residual `‖Lx − θx‖` relative to the
    /// spectral bound `2·max_degree` of the subgraph.
    pub tolerance: f64,
}

impl Default for RsbPartitioner {
    fn default() -> Self {
        RsbPartitioner {
            max_steps: 300,
            tolerance: 1e-3,
        }
    }
}

impl Partitioner for RsbPartitioner {
    fn name(&self) -> &'static str {
        "RSB"
    }

    /// The rank-parallel entry point: both Lanczos passes behind every
    /// Fiedler vector — sparse matvec, moment reductions, update and
    /// accumulation — run through `scans`, one chunk per rank, so the
    /// runtime can execute them through `Backend::run_compute` while the
    /// partitioning stays bit-identical to [`Partitioner::partition`].
    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        scans: &mut dyn RankScans,
    ) -> Partitioning {
        assert!(
            geocol.has_connectivity(),
            "RSB requires a LINK (connectivity) section in the GeoCoL structure"
        );
        // Global → local index scratch, reset after every Fiedler vector.
        let mut local = vec![u32::MAX; geocol.nvertices()];
        recursive_bisection(
            geocol,
            nparts,
            scans,
            |vertices, left_parts, nparts, scans| {
                let fiedler = self.fiedler_vector(geocol, vertices, &mut local, scans);
                sort_by_key(vertices, &fiedler);
                let vs: &[u32] = vertices;
                let total_load = block_scan(scans, vs.len(), 1, 1.0, &|items, acc| {
                    for i in items {
                        acc[0] += geocol.vertex_load(vs[i] as usize);
                    }
                })
                .iter()
                .sum::<f64>();
                let target_left = left_target(total_load, left_parts, nparts);
                load_prefix(geocol, vertices, 0.0, target_left).clamp(1, vertices.len() - 1)
            },
        )
    }

    fn cost_estimate(&self, geocol: &GeoCoL, nparts: usize) -> f64 {
        // Each Lanczos step touches every edge of the subgraph; the
        // subgraphs at one recursion level cover the whole graph, so a level
        // costs ~ steps * (n + 2e). This is what makes RSB one to two orders
        // of magnitude more expensive than RCB, matching the paper's Table 2
        // (258 s vs 1.6 s on the 53K mesh).
        let levels = (nparts.max(2) as f64).log2().ceil();
        CALIBRATION_STEPS * (geocol.nvertices() as f64 + 2.0 * geocol.nedges() as f64) * levels
    }
}

/// One Lanczos step's scalars: `q₊ = (Lq − alpha·q − beta_prev·q₋ − mean)
/// / beta`.
#[derive(Debug, Clone, Copy)]
struct Step {
    alpha: f64,
    beta_prev: f64,
    mean: f64,
    beta: f64,
}

/// Rows per slice of [`Subgraph`]'s layout: the matvec runs a whole
/// slice's rows as this many independent subtraction chains.
const SLICE: usize = 8;

/// The Laplacian of the subgraph induced by an active vertex set, in local
/// indices, sliced ELLPACK with [`SLICE`] rows per slice (SELL-C without
/// the row sort; Kreutzer et al., SIAM J. Sci. Comput. 36(5), 2014). Rows
/// `s·SLICE ..` form slice `s`, whose neighbour lists are stored
/// column-major — column `c` holds the `c`-th neighbour of each of the
/// slice's rows, in [`GeoCoL::neighbors`] order — and padded to the slice's
/// longest row with the index `m`: the slot past the rows where every
/// Lanczos vector keeps a `0.0`.
struct Subgraph {
    /// Each row's degree within the subgraph.
    degree: Vec<f64>,
    /// Slice `s`'s columns are `cols[starts[s]..starts[s + 1]]`, `SLICE`
    /// entries each (the last slice's lanes past `m` are padding too).
    starts: Vec<usize>,
    cols: Vec<u32>,
    /// Neighbour entries that are edges: the degrees' sum, padding excluded.
    nnz: usize,
    max_degree: usize,
}

impl Subgraph {
    /// The subgraph of `geocol` induced by `vertices`: two counting passes
    /// over a global→local lookup in `local`, which is left reset.
    fn induced(geocol: &GeoCoL, vertices: &[u32], local: &mut [u32]) -> Subgraph {
        let m = vertices.len();
        for (i, &v) in vertices.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        // Pass 1: the degrees, and from them each slice's width.
        let mut degree = Vec::with_capacity(m);
        let mut starts = Vec::with_capacity(m.div_ceil(SLICE) + 1);
        starts.push(0);
        let (mut nnz, mut max_degree, mut width) = (0, 0, 0);
        for (i, &v) in vertices.iter().enumerate() {
            let deg = geocol
                .neighbors(v as usize)
                .iter()
                .filter(|&&nb| local[nb as usize] != u32::MAX)
                .count();
            degree.push(deg as f64);
            nnz += deg;
            width = width.max(deg);
            if (i + 1) % SLICE == 0 || i + 1 == m {
                starts.push(starts[starts.len() - 1] + width * SLICE);
                max_degree = max_degree.max(width);
                width = 0;
            }
        }
        // Pass 2: the neighbour lists, each row down its slice's lane.
        let mut cols = vec![m as u32; starts[starts.len() - 1]];
        for (i, &v) in vertices.iter().enumerate() {
            let mut at = starts[i / SLICE] + i % SLICE;
            for &nb in geocol.neighbors(v as usize) {
                let l = local[nb as usize];
                if l != u32::MAX {
                    cols[at] = l;
                    at += SLICE;
                }
            }
        }
        for &v in vertices {
            local[v as usize] = u32::MAX;
        }
        Subgraph {
            degree,
            starts,
            cols,
            nnz,
            max_degree,
        }
    }

    fn len(&self) -> usize {
        self.degree.len()
    }

    /// `u[..m] = Lq[..m]`, rank-parallel, where `q[m]` must be `0.0`.
    ///
    /// Row `i` is `degree_i·q_i` minus `q` at each neighbour in order, then
    /// minus `q[m]` at each padded entry: `x − (+0.0)` is `x` bit for bit
    /// (`−0.0` included), so every `u[i]` is the one a CSR loop over the
    /// true neighbours computes. A slice that lies whole in a rank's chunk
    /// runs its rows in lockstep — independent chains, no data-dependent
    /// branch; a slice the chunk boundary cuts runs row by row. The charge
    /// is `2 + 2·avg_degree` per row (the diagonal's multiply and store, a
    /// load and a subtract per edge): the padding is not modeled work.
    fn matvec(&self, scans: &mut dyn RankScans, q: &[f64], u: &mut Vec<f64>) {
        let m = self.len();
        debug_assert_eq!(q[m].to_bits(), 0, "the padding's operand is +0.0");
        let ops = 2.0 + 2.0 * self.nnz as f64 / m as f64;
        map_scan(scans, m, ops, u, &|rows, out| {
            let mut i = rows.start;
            while i < rows.end {
                let first = i / SLICE * SLICE;
                let (columns, _) = self.cols
                    [self.starts[first / SLICE]..self.starts[first / SLICE + 1]]
                    .as_chunks::<SLICE>();
                let out = &mut out[i - rows.start..];
                if i == first && first + SLICE <= rows.end {
                    let mut acc: [f64; SLICE] =
                        std::array::from_fn(|r| self.degree[first + r] * q[first + r]);
                    for column in columns {
                        for (a, &nb) in acc.iter_mut().zip(column) {
                            *a -= q[nb as usize];
                        }
                    }
                    out[..SLICE].copy_from_slice(&acc);
                    i += SLICE;
                } else {
                    let end = rows.end.min(first + SLICE);
                    for (o, row) in out.iter_mut().zip(i..end) {
                        let mut acc = self.degree[row] * q[row];
                        for column in columns {
                            acc -= q[column[row - first] as usize];
                        }
                        *o = acc;
                    }
                    i = end;
                }
            }
        });
    }
}

/// The Lanczos update `q₊ = (u − αq − β₋q₋ − mean)/β` of the first `m`
/// items into `next`, rank-parallel. Both passes call it with the same
/// inputs, so their vectors are bit-identical.
fn lanczos_update(
    scans: &mut dyn RankScans,
    m: usize,
    u: &[f64],
    q: &[f64],
    q_prev: &[f64],
    step: Step,
    next: &mut Vec<f64>,
) {
    let Step {
        alpha,
        beta_prev,
        mean,
        beta,
    } = step;
    map_scan(scans, m, 6.0, next, &|range, out| {
        let (u, q, q_prev) = (&u[range.clone()], &q[range.clone()], &q_prev[range]);
        for (k, o) in out.iter_mut().enumerate() {
            *o = (u[k] - alpha * q[k] - beta_prev * q_prev[k] - mean) / beta;
        }
    })
}

impl RsbPartitioner {
    /// Fiedler vector of the subgraph induced by `vertices` (two or more),
    /// indexed by position within `vertices`: the smallest Ritz vector of a
    /// two-pass Lanczos run whose matvecs, moment reductions, updates and
    /// accumulations run through `scans` (see the module docs); `local` is
    /// reusable global→local scratch.
    fn fiedler_vector(
        &self,
        geocol: &GeoCoL,
        vertices: &[u32],
        local: &mut [u32],
        scans: &mut dyn RankScans,
    ) -> Vec<f64> {
        let m = vertices.len();
        let graph = Subgraph::induced(geocol, vertices, local);
        // The Laplacian's spectrum lies in [0, 2·max_degree]: the scale the
        // residual tolerance is relative to.
        let spectral_bound = 2.0 * graph.max_degree as f64;

        // Every vector is m + 1 long: slot m is the matvec padding's 0.0,
        // and no scan writes it.
        let mut q_prev = vec![0.0; m + 1];
        let mut q = vec![0.0; m + 1];
        let mut u = vec![0.0; m + 1];
        let mut next = vec![0.0; m + 1];
        let mut x = vec![0.0; m + 1];

        // Pass 1: the recurrence, keeping only T's scalars. The deflated
        // space has m − 1 dimensions, so the run is exact by then.
        let cap = self.max_steps.min(m - 1).max(1);
        let mut steps: Vec<Step> = Vec::new();
        start_vector(vertices, &mut q);
        let ritz = loop {
            graph.matvec(scans, &q, &mut u);
            let (ur, qr, pr) = (&u[..m], &q[..m], &q_prev[..m]);
            let blocks = block_scan(scans, m, 9, 15.0, &|items, acc| {
                let mut s = [0.0; 9];
                s.copy_from_slice(acc);
                let (ur, qr, pr) = (&ur[items.clone()], &qr[items.clone()], &pr[items]);
                for ((&u, &q), &p) in ur.iter().zip(qr).zip(pr) {
                    s[0] += u;
                    s[1] += q;
                    s[2] += p;
                    s[3] += u * u;
                    s[4] += q * q;
                    s[5] += p * p;
                    s[6] += u * q;
                    s[7] += u * p;
                    s[8] += q * p;
                }
                acc.copy_from_slice(&s);
            });
            let mut sum = [0.0; 9];
            for b in blocks.chunks_exact(9) {
                for (s, v) in sum.iter_mut().zip(b) {
                    *s += v;
                }
            }
            let [su, sq, sp, suu, sqq, spp, suq, sup, sqp] = sum;
            // w = u − αq − β₋q₋, with q of unit length so α = qᵀLq.
            let alpha = suq;
            let beta_prev = steps.last().map_or(0.0, |s| s.beta);
            let sw = su - alpha * sq - beta_prev * sp;
            let magnitude = suu + alpha * alpha * sqq + beta_prev * beta_prev * spp;
            let sww = magnitude - 2.0 * alpha * suq - 2.0 * beta_prev * sup
                + 2.0 * alpha * beta_prev * sqp;
            let mean = sw / m as f64;
            let beta2 = (sww - mean * sw).max(0.0);
            steps.push(Step {
                alpha,
                beta_prev,
                mean,
                beta: beta2.sqrt(),
            });
            let k = steps.len();
            // β² is a difference of terms of size `magnitude`: below its
            // rounding error the Krylov space is invariant (L = 0 on an
            // edgeless subgraph breaks down at step 1).
            let invariant = beta2 <= 1e-12 * magnitude;
            if invariant || k == cap || k.is_multiple_of(RITZ_EVERY) {
                let alphas: Vec<f64> = steps.iter().map(|s| s.alpha).collect();
                let betas: Vec<f64> = steps[..k - 1].iter().map(|s| s.beta).collect();
                let s = smallest_eigenvector(&alphas, &betas);
                let residual = steps[k - 1].beta * s[k - 1].abs();
                if invariant || k == cap || residual <= self.tolerance * spectral_bound {
                    break s;
                }
            }
            lanczos_update(scans, m, &u, &q, &q_prev, steps[k - 1], &mut next);
            // q₋ ← q ← q₊; the old q₋ is the next update's buffer.
            std::mem::swap(&mut q_prev, &mut q);
            std::mem::swap(&mut q, &mut next);
        };

        // Pass 2: replay the recurrence and accumulate x = Σ s_j q_j.
        q_prev.fill(0.0);
        start_vector(vertices, &mut q);
        for j in 1..steps.len() {
            graph.matvec(scans, &q, &mut u);
            lanczos_update(scans, m, &u, &q, &q_prev, steps[j - 1], &mut next);
            std::mem::swap(&mut q_prev, &mut q);
            std::mem::swap(&mut q, &mut next);
            let (s_prev, s_next, qp, qn) = (ritz[j - 1], ritz[j], &q_prev, &q);
            if j == 1 {
                map_scan(scans, m, 3.0, &mut x, &|range, out| {
                    for (k, i) in range.enumerate() {
                        out[k] = s_prev * qp[i] + s_next * qn[i];
                    }
                });
            } else {
                // u is free until the next matvec: x's swap partner.
                let xr = &x;
                map_scan(scans, m, 2.0, &mut u, &|range, out| {
                    for (k, i) in range.enumerate() {
                        out[k] = xr[i] + s_next * qn[i];
                    }
                });
                std::mem::swap(&mut x, &mut u);
            }
        }
        // After one step the Ritz vector is the start vector itself.
        let mut x = if steps.len() == 1 { q } else { x };
        x.truncate(m);
        x
    }
}

/// The deterministic pseudo-random start vector of a Lanczos run over
/// `vertices`, written to `x[..vertices.len()]`: hashed from the vertex ids,
/// orthogonal to the constant vector, of unit length. Driver-side, O(m)
/// once per pass.
fn start_vector(vertices: &[u32], x: &mut [f64]) {
    let x = &mut x[..vertices.len()];
    for (xi, &v) in x.iter_mut().zip(vertices) {
        let h = (v as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(31);
        *xi = (h % 10_000) as f64 / 10_000.0 - 0.5;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-30 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
}

/// Unit eigenvector of the smallest eigenvalue of the symmetric tridiagonal
/// matrix with diagonal `a` and off-diagonal `b` (`b.len() + 1 == a.len()`):
/// the eigenvalue by Sturm-count bisection to full precision, the vector by
/// inverse iteration through a partially pivoted LU of `T − θI`.
fn smallest_eigenvector(a: &[f64], b: &[f64]) -> Vec<f64> {
    let k = a.len();
    debug_assert_eq!(b.len() + 1, k);
    if k == 1 {
        return vec![1.0];
    }
    // Gershgorin bounds the spectrum.
    let radius = |i: usize| {
        let left = if i > 0 { b[i - 1].abs() } else { 0.0 };
        left + b.get(i).map_or(0.0, |v| v.abs())
    };
    let (mut lo, mut hi, mut norm) = (f64::INFINITY, f64::NEG_INFINITY, 0.0f64);
    for (i, &ai) in a.iter().enumerate() {
        lo = lo.min(ai - radius(i));
        hi = hi.max(ai + radius(i));
        norm = norm.max(ai.abs() + radius(i));
    }
    let pivmin = f64::MIN_POSITIVE * b.iter().fold(1.0f64, |m, v| m.max(v * v));
    // Number of eigenvalues below `x`: the negative pivots of T − xI = LDLᵀ.
    let below = |x: f64| {
        let mut count = 0;
        let mut d = 1.0;
        for i in 0..k {
            d = a[i] - x - if i > 0 { b[i - 1] * b[i - 1] / d } else { 0.0 };
            if d.abs() < pivmin {
                d = -pivmin;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        count
    };
    loop {
        let mid = 0.5 * (lo + hi);
        if mid <= lo || mid >= hi {
            break;
        }
        if below(mid) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let theta = hi;

    // T − θI = PLU with partial pivoting: U has two superdiagonals.
    let mut d: Vec<f64> = a.iter().map(|&v| v - theta).collect();
    let mut dl = b.to_vec();
    let mut du = b.to_vec();
    let mut du2 = vec![0.0; k - 1];
    let mut swapped = vec![false; k - 1];
    for i in 0..k - 1 {
        if d[i].abs() >= dl[i].abs() {
            if d[i] != 0.0 {
                dl[i] /= d[i];
                d[i + 1] -= dl[i] * du[i];
            }
        } else {
            let f = d[i] / dl[i];
            d[i] = dl[i];
            dl[i] = f;
            let t = du[i];
            du[i] = d[i + 1];
            d[i + 1] = t - f * d[i + 1];
            if i + 2 < k {
                du2[i] = du[i + 1];
                du[i + 1] *= -f;
            }
            swapped[i] = true;
        }
    }
    // θ is an eigenvalue to working precision, so a pivot may vanish.
    let floor = f64::EPSILON * norm;
    for p in d.iter_mut() {
        if p.abs() < floor {
            *p = floor;
        }
    }
    // Inverse iteration from a start vector no symmetry of T is orthogonal
    // to.
    let mut s: Vec<f64> = (0..k)
        .map(|i| 1.0 + ((i as f64 * 0.618_033_988_749_895).fract() - 0.5) * 0.5)
        .collect();
    for _ in 0..3 {
        for i in 0..k - 1 {
            if swapped[i] {
                let t = s[i];
                s[i] = s[i + 1];
                s[i + 1] = t - dl[i] * s[i];
            } else {
                s[i + 1] -= dl[i] * s[i];
            }
        }
        for i in (0..k).rev() {
            let mut v = s[i];
            if i + 1 < k {
                v -= du[i] * s[i + 1];
            }
            if i + 2 < k {
                v -= du2[i] * s[i + 2];
            }
            s[i] = v / d[i];
        }
        let norm = s.iter().map(|v| v * v).sum::<f64>().sqrt();
        for v in s.iter_mut() {
            *v /= norm;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockPartitioner;
    use crate::geocol::GeoColBuilder;
    use crate::metrics::PartitionQuality;
    use crate::partition::{ScanKernel, SerialScans};

    /// Two dense clusters joined by a single bridge edge. The spectral split
    /// must find the bridge.
    fn dumbbell(cluster: usize) -> GeoCoL {
        let n = 2 * cluster;
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for c in 0..2 {
            let base = (c * cluster) as u32;
            for i in 0..cluster as u32 {
                for j in (i + 1)..cluster as u32 {
                    e1.push(base + i);
                    e2.push(base + j);
                }
            }
        }
        // The bridge.
        e1.push(0);
        e2.push(cluster as u32);
        GeoColBuilder::new(n).link(e1, e2).build().unwrap()
    }

    #[test]
    fn rsb_finds_the_bridge_in_a_dumbbell() {
        let g = dumbbell(12);
        let p = RsbPartitioner::default().partition(&g, 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert_eq!(
            q.edge_cut, 1,
            "spectral bisection should cut only the bridge"
        );
        assert_eq!(q.load_imbalance, 1.0);
    }

    /// 2-D grid with vertices renumbered so that BLOCK performs poorly.
    fn shuffled_grid(side: usize) -> GeoCoL {
        let n = side * side;
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = 99u64;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    e1.push(perm[v] as u32);
                    e2.push(perm[v + 1] as u32);
                }
                if r + 1 < side {
                    e1.push(perm[v] as u32);
                    e2.push(perm[v + side] as u32);
                }
            }
        }
        GeoColBuilder::new(n).link(e1, e2).build().unwrap()
    }

    #[test]
    fn rsb_beats_block_on_shuffled_grid() {
        let g = shuffled_grid(12);
        let rsb = PartitionQuality::evaluate(&g, &RsbPartitioner::default().partition(&g, 4));
        let block = PartitionQuality::evaluate(&g, &BlockPartitioner.partition(&g, 4));
        assert!(
            (rsb.edge_cut as f64) < 0.6 * block.edge_cut as f64,
            "RSB cut {} vs BLOCK cut {}",
            rsb.edge_cut,
            block.edge_cut
        );
        assert!(rsb.load_imbalance <= 1.1);
    }

    #[test]
    fn rsb_multiway_is_balanced() {
        let g = shuffled_grid(10);
        for nparts in [4, 8, 6] {
            let p = RsbPartitioner::default().partition(&g, nparts);
            let q = PartitionQuality::evaluate(&g, &p);
            assert!(
                q.load_imbalance <= 1.3,
                "nparts={nparts} imbalance {}",
                q.load_imbalance
            );
            assert_eq!(p.part_sizes().iter().sum::<usize>(), 100);
        }
    }

    #[test]
    fn rsb_cost_estimate_dwarfs_rcb() {
        let g = shuffled_grid(10);
        let rsb_cost = RsbPartitioner::default().cost_estimate(&g, 8);
        let rcb_cost = crate::rcb::RcbPartitioner.cost_estimate(&g, 8);
        assert!(
            rsb_cost > 10.0 * rcb_cost,
            "RSB {rsb_cost} should be much more expensive than RCB {rcb_cost}"
        );
        // The estimate is a calibration, not a function of the knobs.
        let capped = RsbPartitioner {
            max_steps: 8,
            tolerance: 0.5,
        };
        assert_eq!(capped.cost_estimate(&g, 8), rsb_cost);
    }

    #[test]
    fn rsb_handles_disconnected_graphs() {
        // Two components with no bridge at all.
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for i in 0..10u32 {
            for j in (i + 1)..10u32 {
                e1.push(i);
                e2.push(j);
                e1.push(10 + i);
                e2.push(10 + j);
            }
        }
        let g = GeoColBuilder::new(20).link(e1, e2).build().unwrap();
        let p = RsbPartitioner::default().partition(&g, 2);
        let q = PartitionQuality::evaluate(&g, &p);
        assert_eq!(q.edge_cut, 0);
    }

    #[test]
    fn rsb_is_deterministic() {
        let g = shuffled_grid(8);
        let a = RsbPartitioner::default().partition(&g, 4);
        let b = RsbPartitioner::default().partition(&g, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn rsb_scans_are_rank_count_independent() {
        // The whole point of the map/block scan structure: chunking the
        // scans over any number of ranks must not change a single bit of
        // the partitioning, so the pure partition() is an exact oracle for
        // every backend. Swept over multiway counts and a disconnected
        // graph.
        let g = shuffled_grid(14);
        for nparts in [2, 4, 7] {
            let serial = RsbPartitioner::default().partition(&g, nparts);
            for nranks in [2, 3, 5, 16, 64] {
                let chunked = RsbPartitioner::default().partition_with_scans(
                    &g,
                    nparts,
                    &mut SerialScans { nranks },
                );
                assert_eq!(serial, chunked, "nparts={nparts} nranks={nranks}");
            }
        }
        let disconnected = {
            let mut e1 = Vec::new();
            let mut e2 = Vec::new();
            for i in 0..30u32 {
                if i % 15 != 14 {
                    e1.push(i);
                    e2.push(i + 1);
                }
            }
            GeoColBuilder::new(30).link(e1, e2).build().unwrap()
        };
        let serial = RsbPartitioner::default().partition(&disconnected, 4);
        for nranks in [3, 8] {
            let chunked = RsbPartitioner::default().partition_with_scans(
                &disconnected,
                4,
                &mut SerialScans { nranks },
            );
            assert_eq!(serial, chunked);
        }
    }

    #[test]
    #[should_panic(expected = "LINK")]
    fn rsb_requires_connectivity() {
        let g = GeoColBuilder::new(4)
            .geometry(vec![vec![0.0; 4]])
            .build()
            .unwrap();
        let _ = RsbPartitioner::default().partition(&g, 2);
    }

    /// A single-chunk [`RankScans`] that counts the scans it runs.
    struct CountingScans(usize);

    impl RankScans for CountingScans {
        fn nranks(&self) -> usize {
            1
        }

        fn scan(
            &mut self,
            n_items: usize,
            width: usize,
            ops_per_item: f64,
            kernel: &ScanKernel<'_>,
            partials: &mut [f64],
        ) {
            self.0 += 1;
            SerialScans::single().scan(n_items, width, ops_per_item, kernel, partials)
        }
    }

    /// The Fiedler vector of the whole of `g`.
    fn whole_graph_fiedler(rsb: &RsbPartitioner, g: &GeoCoL) -> Vec<f64> {
        let vertices: Vec<u32> = (0..g.nvertices() as u32).collect();
        let mut local = vec![u32::MAX; g.nvertices()];
        rsb.fiedler_vector(g, &vertices, &mut local, &mut SerialScans::single())
    }

    /// The largest componentwise distance from `x` to the analytic
    /// `cos(π(c+½)/n)` of each vertex's position `c` along the long axis,
    /// both of unit length and `x` sign-matched.
    fn distance_to_cosine(x: &[f64], position: impl Fn(usize) -> usize, n: usize) -> f64 {
        let unit = |v: Vec<f64>| {
            let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            v.into_iter().map(|a| a / norm).collect::<Vec<f64>>()
        };
        let want = unit(
            (0..x.len())
                .map(|i| (std::f64::consts::PI * (position(i) as f64 + 0.5) / n as f64).cos())
                .collect(),
        );
        let x = unit(x.to_vec());
        let sign = x
            .iter()
            .zip(&want)
            .map(|(a, b)| a * b)
            .sum::<f64>()
            .signum();
        x.iter()
            .zip(&want)
            .map(|(a, b)| (sign * a - b).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn the_fiedler_vector_is_the_analytic_eigenvector() {
        let tight = RsbPartitioner {
            max_steps: 300,
            tolerance: 1e-12,
        };
        // The path P₆₄: λ₂ = 2 − 2cos(π/64), vector cos(π(i+½)/64).
        let n = 64;
        let path = GeoColBuilder::new(n)
            .link((0..n as u32 - 1).collect(), (1..n as u32).collect())
            .build()
            .unwrap();
        let err = distance_to_cosine(&whole_graph_fiedler(&tight, &path), |i| i, n);
        assert!(err < 1e-6, "path: {err:e}");

        // A 12×7 grid (a rectangle: a square's λ₂ is degenerate): the
        // vector varies as cos(π(c+½)/12) along the 12-long axis and is
        // constant across the short one.
        let (cols, rows) = (12usize, 7usize);
        let (mut e1, mut e2) = (Vec::new(), Vec::new());
        for r in 0..rows {
            for c in 0..cols {
                let v = (r * cols + c) as u32;
                if c + 1 < cols {
                    e1.push(v);
                    e2.push(v + 1);
                }
                if r + 1 < rows {
                    e1.push(v);
                    e2.push(v + cols as u32);
                }
            }
        }
        let grid = GeoColBuilder::new(cols * rows)
            .link(e1, e2)
            .build()
            .unwrap();
        let err = distance_to_cosine(&whole_graph_fiedler(&tight, &grid), |i| i % cols, cols);
        assert!(err < 1e-6, "grid: {err:e}");
    }

    #[test]
    fn an_edgeless_subgraph_breaks_down_at_the_first_step() {
        // The leaves of a star induce no edge: L = 0, so β = 0 at step 1
        // and the start vector is the answer — one matvec and one moment
        // scan, no replay.
        let star = GeoColBuilder::new(9)
            .link(vec![0; 8], (1..9).collect())
            .build()
            .unwrap();
        let leaves: Vec<u32> = (1..9).collect();
        let mut local = vec![u32::MAX; 9];
        let mut scans = CountingScans(0);
        let x = RsbPartitioner::default().fiedler_vector(&star, &leaves, &mut local, &mut scans);
        assert_eq!(scans.0, 2);
        let mut start = vec![0.0; leaves.len()];
        start_vector(&leaves, &mut start);
        assert_eq!(x, start);
        assert!(local.iter().all(|&l| l == u32::MAX), "scratch reset");
    }

    /// The CSR matvec the sliced layout replaced, kept as its oracle: the
    /// induced subgraph's adjacency as offsets and targets, and one serial
    /// chain of subtractions per row.
    fn csr_matvec(geocol: &GeoCoL, vertices: &[u32], q: &[f64]) -> Vec<f64> {
        let mut local = vec![u32::MAX; geocol.nvertices()];
        for (i, &v) in vertices.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut offsets = vec![0usize];
        let mut targets = Vec::new();
        for &v in vertices {
            for &nb in geocol.neighbors(v as usize) {
                let l = local[nb as usize];
                if l != u32::MAX {
                    targets.push(l);
                }
            }
            offsets.push(targets.len());
        }
        (0..vertices.len())
            .map(|i| {
                let row = offsets[i]..offsets[i + 1];
                let mut s = row.len() as f64 * q[i];
                for &nb in &targets[row] {
                    s -= q[nb as usize];
                }
                s
            })
            .collect()
    }

    /// A pseudo-random graph on `n` vertices with about `n·degree / 2`
    /// edges (self-loops and duplicates dropped by the builder or kept as
    /// they come), from a fixed seed.
    fn random_graph(n: usize, degree: usize, seed: u64) -> GeoCoL {
        let mut state = seed;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32 % n as u32
        };
        let mut edges = Vec::new();
        for _ in 0..n * degree / 2 {
            let (a, b) = (next(), next());
            if a != b {
                edges.push((a, b));
            }
        }
        GeoColBuilder::new(n).link_edges(&edges).build().unwrap()
    }

    #[test]
    fn the_sliced_matvec_is_the_csr_matvec_bit_for_bit() {
        let star = GeoColBuilder::new(41)
            .link(vec![5; 40], (0..41).filter(|&v| v != 5).collect())
            .build()
            .unwrap();
        // Slice 1 (rows 8..16) has no edge: its vertices touch only
        // vertices outside the active set.
        let hollow = {
            let mut edges: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
            edges.extend((8..16).map(|i| (i, i + 16)));
            edges.extend((16..23).map(|i| (i, i + 1)));
            GeoColBuilder::new(32).link_edges(&edges).build().unwrap()
        };
        let mut cases: Vec<(String, GeoCoL, Vec<u32>)> = Vec::new();
        for m in (1..=40).chain([1003]) {
            // An induced subset: some neighbours fall outside it, and
            // sparse draws leave degree-0 rows.
            let g = random_graph(m + m / 3 + 1, 5, m as u64);
            let mut vertices: Vec<u32> = (0..g.nvertices() as u32).collect();
            vertices.sort_by_key(|&v| (v as u64).wrapping_mul(0x9E3779B97F4A7C15));
            vertices.truncate(m);
            cases.push((format!("random m={m}"), g, vertices));
        }
        cases.push(("star".into(), star, (0..41).collect()));
        cases.push(("hollow slice".into(), hollow, (0..24).collect()));
        let mesh = shuffled_grid(23);
        cases.push(("mesh".into(), mesh, (0..23 * 23).collect()));

        for (name, g, vertices) in &cases {
            let m = vertices.len();
            // Signed values, zeros of both signs among them.
            let mut q: Vec<f64> = (0..m)
                .map(|i| match i % 7 {
                    3 => -0.0,
                    5 => 0.0,
                    _ => ((i as f64 * 0.731).sin() * 1e3).fract(),
                })
                .collect();
            let want = csr_matvec(g, vertices, &q);
            q.push(0.0);
            let mut local = vec![u32::MAX; g.nvertices()];
            let graph = Subgraph::induced(g, vertices, &mut local);
            assert!(
                local.iter().all(|&l| l == u32::MAX),
                "{name}: scratch reset"
            );
            for nranks in [1, 3, 7, 64] {
                let mut u = vec![0.0; m + 1];
                graph.matvec(&mut SerialScans { nranks }, &q, &mut u);
                for (i, (a, b)) in u.iter().zip(&want).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{name} nranks={nranks} row {i}");
                }
                assert_eq!(u[m].to_bits(), 0, "{name} nranks={nranks}: u's zero slot");
                assert_eq!(q[m].to_bits(), 0, "{name} nranks={nranks}: q's zero slot");
            }
        }
    }

    #[test]
    fn degenerate_graphs_partition_without_a_nan_key() {
        let graph = |n: usize, edges: &[(u32, u32)]| {
            GeoColBuilder::new(n).link_edges(edges).build().unwrap()
        };
        let mut complete = Vec::new();
        for i in 0..12u32 {
            for j in (i + 1)..12 {
                complete.push((i, j));
            }
        }
        let star: Vec<(u32, u32)> = (1..12).map(|leaf| (0, leaf)).collect();
        // A 6-cycle beside 6 isolated vertices.
        let beside: Vec<(u32, u32)> = (0..6).map(|i| (i, (i + 1) % 6)).collect();
        let cases = [
            ("one edge, the rest isolated", graph(12, &[(3, 7)]), 4),
            ("complete K12", graph(12, &complete), 4),
            ("star", graph(12, &star), 4),
            ("two vertices", graph(2, &[(0, 1)]), 2),
            ("isolated vertices beside a cycle", graph(12, &beside), 4),
        ];
        for (name, g, nparts) in cases {
            let serial = RsbPartitioner::default().partition(&g, nparts);
            let q = PartitionQuality::evaluate(&g, &serial);
            assert!(q.load_imbalance <= 1.3, "{name}: {}", q.load_imbalance);
            for nranks in [1, 3, 16] {
                let chunked = RsbPartitioner::default().partition_with_scans(
                    &g,
                    nparts,
                    &mut SerialScans { nranks },
                );
                assert_eq!(serial, chunked, "{name}: nranks={nranks}");
            }
        }
    }

    #[test]
    fn the_smallest_tridiagonal_eigenvector_is_exact_on_known_spectra() {
        // The path Laplacian is itself tridiagonal: diagonal [1, 2, …, 2, 1],
        // off-diagonal −1; its smallest eigenvalue 0 has the constant vector.
        let n = 10;
        let mut a = vec![2.0; n];
        a[0] = 1.0;
        a[n - 1] = 1.0;
        let s = smallest_eigenvector(&a, &vec![-1.0; n - 1]);
        let c = 1.0 / (n as f64).sqrt();
        assert!(s.iter().all(|v| (v.abs() - c).abs() < 1e-12), "{s:?}");
        // A diagonal matrix: the unit vector of the smallest entry.
        let s = smallest_eigenvector(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert!((s[1].abs() - 1.0).abs() < 1e-12, "{s:?}");
        assert!(s[0].abs() < 1e-12 && s[2].abs() < 1e-12, "{s:?}");
        assert_eq!(smallest_eigenvector(&[5.0], &[]), vec![1.0]);
    }
}
