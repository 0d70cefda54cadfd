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
//! Live memory is five `m + 1`-long buffers (`q`, `q₋`, `u`, `q₊`, `x`,
//! which holds the start until pass 2), rotated between scans. Slot `m` of
//! each is a `0.0` no scan writes: the operand of the matvec's padding.
//!
//! # Multilevel start vector
//!
//! A set of at most `COARSEST` = 500 vertices starts from a vector hashed
//! from its vertex ids. A larger one starts from the Fiedler vector of a
//! **coarsened hierarchy** of its subgraph (Barnard & Simon, Concurrency:
//! Pract. Exper. 6(2), 1994; Hendrickson & Leland, Supercomputing '95).
//! Each coarse vertex contracts rows of the level below, summing the
//! weights of the edges between them. Level 1 contracts a maximal
//! independent set, each seed with its free neighbours (about 4.5 rows on a
//! mesh); every later level a greedy heavy-edge matching, whose pairs
//! converge in fewer steps on the weighted levels. Coarsening stops at
//! `COARSEST` vertices or before a level that would shrink by less than
//! 5 %. The same Lanczos, with the same step cap and tolerance, runs on the
//! coarsest level from a hashed start and on each finer level from the
//! coarser level's Fiedler vector, prolonged, centred and normalised. The
//! set's own run then stops at its first or second Ritz check, after 4 or
//! 8 steps; the hierarchy is freed before it allocates its buffers.
//!
//! # Rank-parallel passes
//!
//! The active set's own Lanczos run — the only one whose size is the
//! input's — runs its inner loops **rank-parallel** through the
//! [`RankScans`] executor (the PARTI/CHAOS partitioners themselves ran
//! data-parallel on the nodes — this is the reproduction's version of
//! that). A pass-1 step is three scans:
//!
//! * the **sparse matvec** `u = Lq`, a [`map_scan`] charging
//!   `2 + 2·avg_degree` ops per vertex (the diagonal's multiply and store, a
//!   load and a subtract per edge). The Laplacian is stored sliced ELLPACK,
//!   8 rows per slice with each slice's neighbour lists (and a coarse
//!   level's edge weights) column-major and padded to its longest row, so a
//!   slice's 8 rows run as 8 independent subtraction chains `acc −= w·q[nb]`
//!   with no data-dependent branch; the padding subtracts `w·q[m] = +0.0`,
//!   which changes no bit and is not charged;
//! * one width-9 [`block_scan`] of `Σu, Σq, Σq₋, Σu², Σq², Σq₋², Σuq, Σuq₋,
//!   Σqq₋` (15 ops per vertex), from which `α = qᵀu`, the mean of
//!   `w = u − αq − β₋q₋` and `β = ‖w − mean‖` follow by algebra;
//! * the **update** `q₊ = (w − mean)/β`, a [`map_scan`] (6 ops per vertex).
//!
//! A pass-2 step is the same matvec and update plus the accumulation
//! `x ← x + s_j q_j`, one more [`map_scan`] (2 ops per vertex). The sorted
//! set's **total load** is one more [`block_scan`].
//!
//! The coarse levels (through [`SerialScans::single`]), the O(k) scalar
//! work, the Laplacians, the start vector and the sort stay on the driver,
//! independent of the executor. Maps write disjoint items and reductions
//! fold fixed blocks, so the partitioning is bit-identical for every rank
//! count and engine.
//!
//! # Modeled cost
//!
//! [`Partitioner::cost_estimate`] is a fixed calibration: 200 steps of
//! `n + 2e` per recursion level, one to two orders of magnitude above RCB
//! as in Table 2 (258 s against 1.6 s on the 53K mesh). The coupler charges
//! what the scans do not; a warm-started run charges far less, so the
//! modeled time is the estimate's parallel share plus the ranks' wait at
//! the scans (a reduction folds fixed 1 024-item blocks, so on a set of a
//! few thousand vertices few ranks fold). The remainder stands for the
//! driver-side coarse work.

use crate::geocol::{GeoCoL, Section};
use crate::partition::{
    block_scan, left_target, load_prefix, map_scan, recursive_bisection, sort_by_key, Partitioner,
    Partitioning, RankScans, SerialScans,
};

/// Lanczos steps per recursion level that [`Partitioner::cost_estimate`]
/// assumes: the model's calibration, independent of the step cap and the
/// tolerance.
const CALIBRATION_STEPS: f64 = 200.0;

/// A Ritz pair is taken from the tridiagonal once every this many steps.
const RITZ_EVERY: usize = 4;

/// An active set of more vertices than this starts its Lanczos run from a
/// coarsened hierarchy's Fiedler vector, and coarsening stops once a level
/// is this small.
const COARSEST: usize = 500;

/// Recursive spectral bisection partitioner.
///
/// A program selects it by name (`USING RSB`), which takes the
/// [`Default`] step cap and tolerance. The two fields stay settable for
/// callers that drive the partitioner directly: tests cap the Lanczos
/// runtime with them on graphs where the default would dominate the run.
#[derive(Debug, Clone, Copy)]
pub struct RsbPartitioner {
    /// Lanczos steps per run, at most (the graph's size minus one bounds it
    /// too); every level of a coarsened hierarchy gets the same cap.
    pub max_steps: usize,
    /// Convergence tolerance: the Ritz residual `‖Lx − θx‖` relative to the
    /// spectral bound `2·max_degree` of the graph, at every level.
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

    fn required_section(&self) -> Option<Section> {
        Some(Section::Link)
    }

    /// The rank-parallel entry point: both Lanczos passes behind every
    /// active set's Fiedler vector — sparse matvec, moment reductions,
    /// update and accumulation — run through `scans`, one chunk per rank,
    /// so the runtime can execute them through `Backend::run_compute` while
    /// the partitioning stays bit-identical to [`Partitioner::partition`].
    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        scans: &mut dyn RankScans,
    ) -> Partitioning {
        // Global → local index scratch, reset after every use.
        let mut local = vec![u32::MAX; geocol.nvertices()];
        recursive_bisection(
            self,
            geocol,
            nparts,
            scans,
            |vertices, left_parts, nparts, scans| {
                let fiedler = self.multilevel_fiedler(geocol, vertices, &mut local, scans);
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

/// The weighted Laplacian of a graph on `m` local vertices — an active
/// set's induced subgraph, or a coarse level — sliced ELLPACK with
/// [`SLICE`] rows per slice (SELL-C without the row sort; Kreutzer et al.,
/// SIAM J. Sci. Comput. 36(5), 2014). Slice `s` (rows `s·SLICE ..`) stores
/// its entries column-major — column `c` holds each row's `c`-th — padded
/// to its longest row with index `m`, where every Lanczos vector keeps a
/// `0.0`, and weight `0`.
struct Subgraph {
    /// Each row's weighted degree: the sum of its entries' weights.
    degree: Vec<f64>,
    /// Slice `s`'s entries are `starts[s]..starts[s + 1]`.
    starts: Vec<usize>,
    cols: Vec<u32>,
    /// The number of fine edges each entry stands for; empty on an induced
    /// subgraph, whose entries weigh 1.
    weights: Vec<u32>,
    /// Entries that are edges: padding excluded.
    nnz: usize,
}

impl Subgraph {
    /// The subgraph of `geocol` induced by `vertices`, each row's
    /// neighbours in [`GeoCoL::neighbors`] order, through a global→local
    /// lookup in `local`, which is left reset. Its weights are all 1, so it
    /// stores none.
    fn induced(geocol: &GeoCoL, vertices: &[u32], local: &mut [u32]) -> Subgraph {
        for (i, &v) in vertices.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let bound = |i: usize| geocol.degree(vertices[i] as usize);
        let graph = Subgraph::build(vertices.len(), false, bound, |i, lane, cols, _| {
            let mut len = 0;
            for &nb in geocol.neighbors(vertices[i] as usize) {
                let l = local[nb as usize];
                if l != u32::MAX {
                    cols[len][lane] = l;
                    len += 1;
                }
            }
            len
        });
        for &v in vertices {
            local[v as usize] = u32::MAX;
        }
        graph
    }

    /// The coarse graph whose vertex `c < mc` contracts the rows `i` with
    /// `coarse_of[i] == c`: its row lists the coarse vertices of their
    /// neighbours in first-seen order, summing the weights of the fine
    /// edges to each; the edges inside it vanish.
    fn contract(&self, coarse_of: &[u32], mc: usize) -> Subgraph {
        // Each coarse vertex's rows, in order: `rows[first[c]..first[c + 1]]`.
        let mut first = vec![0u32; mc + 1];
        for &c in coarse_of {
            first[c as usize + 1] += 1;
        }
        for c in 0..mc {
            first[c + 1] += first[c];
        }
        let mut rows = vec![0u32; coarse_of.len()];
        let mut next = first.clone();
        for (i, &c) in coarse_of.iter().enumerate() {
            rows[next[c as usize] as usize] = i as u32;
            next[c as usize] += 1;
        }
        let members = |c: usize| &rows[first[c] as usize..first[c + 1] as usize];
        let bound = |c: usize| members(c).iter().map(|&i| self.width(i as usize)).sum();
        // `tag[cj]` is the coarse row that last met coarse neighbour `cj`,
        // and its column there. A row tags itself with the scratch column,
        // so the edges inside it merge there and are cut off; the merge has
        // no data-dependent branch.
        let mut tag = vec![(u32::MAX, 0u32); mc];
        Subgraph::build(mc, true, bound, |c, lane, cols, weights| {
            let c = c as u32;
            tag[c as usize] = (c, cols.len() as u32 - 1);
            let mut len = 0;
            for &i in members(c as usize) {
                for (j, w) in self.row(i as usize) {
                    let cj = coarse_of[j];
                    let (owner, column) = tag[cj as usize];
                    let k = if owner == c { column as usize } else { len };
                    cols[k][lane] = cj;
                    weights[k][lane] += w;
                    tag[cj as usize] = (c, k as u32);
                    len += usize::from(owner != c);
                }
            }
            len
        })
    }

    /// The graph on `m` rows whose row `i` has at most `bound(i)` entries:
    /// `write(i, lane, cols, weights)` puts entry `k` in `cols[k][lane]`,
    /// adds its weight to `weights[k][lane]` (empty unless `weighted`) and
    /// returns the count. A slice comes padded, plus a scratch column past
    /// its longest bound; each array is allocated once, at its bounds.
    fn build(
        m: usize,
        weighted: bool,
        bound: impl Fn(usize) -> usize,
        mut write: impl FnMut(usize, usize, &mut [[u32; SLICE]], &mut [[u32; SLICE]]) -> usize,
    ) -> Subgraph {
        let slices = |s: usize| s * SLICE..(s * SLICE + SLICE).min(m);
        let columns: Vec<usize> = (0..m.div_ceil(SLICE))
            .map(|s| slices(s).map(&bound).max().unwrap_or(0) + 1)
            .collect();
        let capacity = columns.iter().sum::<usize>() * SLICE;
        let mut graph = Subgraph {
            degree: Vec::with_capacity(m),
            starts: Vec::with_capacity(columns.len() + 1),
            cols: Vec::with_capacity(capacity),
            weights: Vec::with_capacity(if weighted { capacity } else { 0 }),
            nnz: 0,
        };
        graph.starts.push(0);
        for (s, &ncols) in columns.iter().enumerate() {
            let at = graph.cols.len();
            graph.cols.resize(at + ncols * SLICE, m as u32);
            if weighted {
                graph.weights.resize(at + ncols * SLICE, 0);
            }
            let (cols, _) = graph.cols[at..].as_chunks_mut::<SLICE>();
            let weights = graph.weights.get_mut(at..).unwrap_or_default();
            let (weights, _) = weights.as_chunks_mut();
            let mut width = 0;
            for (lane, i) in slices(s).enumerate() {
                let len = write(i, lane, cols, weights);
                // Unweighted, `weights` is empty and every entry weighs 1.
                let sum = |w: &[[u32; SLICE]]| w.iter().map(|w| u64::from(w[lane])).sum();
                let degree = weights.get(..len).map_or(len as u64, sum);
                graph.degree.push(degree as f64);
                graph.nnz += len;
                width = width.max(len);
            }
            graph.cols.truncate(at + width * SLICE);
            graph.weights.truncate(at + width * SLICE);
            graph.starts.push(graph.cols.len());
        }
        graph.cols.shrink_to_fit();
        graph.weights.shrink_to_fit();
        graph
    }

    fn len(&self) -> usize {
        self.degree.len()
    }

    /// The width of row `i`'s slice: a bound on the row's length.
    fn width(&self, i: usize) -> usize {
        (self.starts[i / SLICE + 1] - self.starts[i / SLICE]) / SLICE
    }

    /// Row `i`'s entries as `(neighbour, weight)`, padding excluded.
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        let (start, lane) = (self.starts[i / SLICE], i % SLICE);
        let (columns, _) = self.cols[start..self.starts[i / SLICE + 1]].as_chunks::<SLICE>();
        let weight = move |k: usize| *self.weights.get(start + k * SLICE + lane).unwrap_or(&1);
        columns
            .iter()
            .enumerate()
            .map(move |(k, c)| (c[lane] as usize, weight(k)))
            .take_while(|&(j, _)| j != self.len())
    }

    /// `u[..m] = Lq[..m]`, rank-parallel, where `q[m]` must be `0.0`.
    ///
    /// Row `i` is `degree_i·q_i` minus `w·q` at each entry in order, then
    /// minus `w·q[m] = +0.0` at each padded entry: `x − (+0.0)` is `x` bit
    /// for bit (`−0.0` included), and `1·q` is `q`, so every `u[i]` is the
    /// one a CSR loop over the true entries computes. A slice whole in a
    /// rank's chunk runs its rows in lockstep; one the chunk boundary cuts,
    /// row by row. The charge, `2 + 2·avg_degree` per row, skips padding.
    fn matvec(&self, scans: &mut dyn RankScans, q: &[f64], u: &mut Vec<f64>) {
        let (w, _) = self.weights.as_chunks::<SLICE>();
        let weights = |column: usize| w.get(column).map_or([1.0; SLICE], |w| w.map(f64::from));
        let m = self.len();
        debug_assert_eq!(q[m].to_bits(), 0, "the padding's operand is +0.0");
        let ops = 2.0 + 2.0 * self.nnz as f64 / m as f64;
        map_scan(scans, m, ops, u, &|rows, out| {
            let mut i = rows.start;
            while i < rows.end {
                let first = i / SLICE * SLICE;
                let start = self.starts[first / SLICE];
                let (columns, _) =
                    self.cols[start..self.starts[first / SLICE + 1]].as_chunks::<SLICE>();
                let out = &mut out[i - rows.start..];
                if i == first && first + SLICE <= rows.end {
                    let mut acc: [f64; SLICE] =
                        std::array::from_fn(|r| self.degree[first + r] * q[first + r]);
                    for (k, column) in columns.iter().enumerate() {
                        let w = weights(start / SLICE + k);
                        for ((a, &nb), w) in acc.iter_mut().zip(column).zip(w) {
                            *a -= w * q[nb as usize];
                        }
                    }
                    out[..SLICE].copy_from_slice(&acc);
                    i += SLICE;
                } else {
                    let end = rows.end.min(first + SLICE);
                    for (o, row) in out.iter_mut().zip(i..end) {
                        let lane = row - first;
                        let mut acc = self.degree[row] * q[row];
                        for (k, column) in columns.iter().enumerate() {
                            acc -= weights(start / SLICE + k)[lane] * q[column[lane] as usize];
                        }
                        *o = acc;
                    }
                    i = end;
                }
            }
        });
    }
}

/// Rows `0..m` in blocks of [`SLICE`], visited with a stride coprime to
/// the block count near `0.618×` it: consecutive blocks lie far apart.
fn strided(m: usize) -> impl Iterator<Item = usize> {
    let blocks = m.div_ceil(SLICE);
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let mut stride = ((blocks as f64 * 0.618) as usize).max(1);
    while gcd(stride, blocks) != 1 {
        stride += 1;
    }
    (0..blocks)
        .map(move |k| k * stride % blocks)
        .flat_map(move |b| b * SLICE..(b * SLICE + SLICE).min(m))
}

/// Each row's coarse vertex, and their number. Visited in [`strided`]
/// order, a free row seeds a coarse vertex with all its free neighbours (a
/// maximal independent set of seeds, after Barnard & Simon) or, with
/// `pairs`, its heaviest one (heavy-edge matching, after Hendrickson &
/// Leland; ties to the larger complement of the index's [`mix`]).
fn coarse_vertices(fine: &Subgraph, pairs: bool) -> (Vec<u32>, usize) {
    let mut seed = vec![u32::MAX; fine.len()];
    for i in strided(fine.len()) {
        if seed[i] != u32::MAX {
            continue;
        }
        seed[i] = i as u32;
        // Weight above, hash below: the larger key wins.
        let (mut best, mut best_key) = (i, 0);
        for (j, w) in fine.row(i) {
            let key = u64::from(w) << 32 | !mix(j as u32) >> 32;
            if seed[j] == u32::MAX && !pairs {
                seed[j] = i as u32;
            } else if seed[j] == u32::MAX && key > best_key {
                (best, best_key) = (j, key);
            }
        }
        seed[best] = i as u32;
    }
    // Coarse vertices are numbered in the order of their first row.
    let (mut id, mut mc) = (vec![u32::MAX; fine.len()], 0);
    for s in seed.iter_mut() {
        if id[*s as usize] == u32::MAX {
            (id[*s as usize], mc) = (mc, mc + 1);
        }
        *s = id[*s as usize];
    }
    (seed, mc as usize)
}

/// The coarsened hierarchy of `finest` (graph 0): `levels[k]` is graph
/// `k + 1` and graph `k`'s rows' coarse vertices in it. Empty for a graph
/// of at most [`COARSEST`] rows or one that does not shrink by 5 %.
fn hierarchy(finest: &Subgraph) -> Vec<(Vec<u32>, Subgraph)> {
    let mut levels: Vec<(Vec<u32>, Subgraph)> = Vec::new();
    loop {
        let fine = levels.last().map_or(finest, |(_, graph)| graph);
        if fine.len() <= COARSEST {
            return levels;
        }
        let (coarse_of, mc) = coarse_vertices(fine, !levels.is_empty());
        if mc * 20 > fine.len() * 19 {
            return levels;
        }
        let coarse = fine.contract(&coarse_of, mc);
        levels.push((coarse_of, coarse));
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
    /// by position within `vertices`: its run through `scans` starts from
    /// the hashed vector or its [`hierarchy`]'s; `local` is scratch.
    fn multilevel_fiedler(
        &self,
        geocol: &GeoCoL,
        vertices: &[u32],
        local: &mut [u32],
        scans: &mut dyn RankScans,
    ) -> Vec<f64> {
        let finest = Subgraph::induced(geocol, vertices, local);
        let mut levels = hierarchy(&finest);
        // Solved from the coarsest up, each level freed on the way.
        let start = match levels.pop() {
            None => start_vector(vertices.iter().map(|&v| hashed(v))),
            Some((mut coarse_of, coarsest)) => {
                let driver = &mut SerialScans::single();
                let start = start_vector((0..coarsest.len() as u32).map(hashed));
                let mut x = self.fiedler_vector(&coarsest, start, driver);
                while let Some((finer_of, graph)) = levels.pop() {
                    let start = start_vector(coarse_of.iter().map(|&c| x[c as usize]));
                    x = self.fiedler_vector(&graph, start, driver);
                    coarse_of = finer_of;
                }
                start_vector(coarse_of.iter().map(|&c| x[c as usize]))
            }
        };
        self.fiedler_vector(&finest, start, scans)
    }

    /// Fiedler vector of `graph` (two or more rows): the smallest Ritz
    /// vector of a two-pass Lanczos run from `start` — a [`start_vector`] —
    /// whose matvecs, moment reductions, updates and accumulations run
    /// through `scans` (see the module docs).
    fn fiedler_vector(
        &self,
        graph: &Subgraph,
        start: Vec<f64>,
        scans: &mut dyn RankScans,
    ) -> Vec<f64> {
        let m = graph.len();
        // The Laplacian's spectrum lies in [0, 2·max_degree]: the scale the
        // residual tolerance is relative to.
        let spectral_bound = 2.0 * graph.degree.iter().fold(0.0, |a: f64, &d| a.max(d));

        // Every vector is m + 1 long: slot m is the matvec padding's 0.0,
        // and no scan writes it. x holds the start until pass 2.
        let mut q_prev = vec![0.0; m + 1];
        let mut q = vec![0.0; m + 1];
        let mut u = vec![0.0; m + 1];
        let mut next = vec![0.0; m + 1];
        let mut x = start;

        // Pass 1: the recurrence, keeping only T's scalars. The deflated
        // space has m − 1 dimensions, so the run is exact by then.
        let cap = self.max_steps.min(m - 1).max(1);
        let mut steps: Vec<Step> = Vec::new();
        q[..m].copy_from_slice(&x[..m]);
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

        // Pass 2: replay the recurrence and accumulate x = Σ s_j q_j. After
        // one step the Ritz vector is the start vector itself.
        q_prev.fill(0.0);
        q[..m].copy_from_slice(&x[..m]);
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
        x.truncate(m);
        x
    }
}

/// The hash behind the start vector and the matching's tie-break.
fn mix(v: u32) -> u64 {
    (v as u64).wrapping_mul(0x9E3779B97F4A7C15).rotate_left(31)
}

/// The hashed start vector's component at `id`, in `[−0.5, 0.5)`.
fn hashed(id: u32) -> f64 {
    (mix(id) % 10_000) as f64 / 10_000.0 - 0.5
}

/// A Lanczos start vector from `values`: centred (orthogonal to the
/// constant vector), of unit length, followed by the padding slot's `0.0`.
/// Driver-side, O(m).
fn start_vector(values: impl ExactSizeIterator<Item = f64>) -> Vec<f64> {
    let m = values.len();
    let mut x = Vec::with_capacity(m + 1);
    x.extend(values);
    let mean = x.iter().sum::<f64>() / m as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-30 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
    x.push(0.0);
    x
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
    use crate::partition::ScanKernel;
    use std::collections::{HashMap, HashSet};

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
        rsb.multilevel_fiedler(g, &vertices, &mut local, &mut SerialScans::single())
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

        // Rectangles (a square's λ₂ is degenerate): the vector varies as
        // cos(π(c+½)/cols) along the long axis and is constant across the
        // short one. 12×7 starts from the hashed vector; 120×70 lies above
        // the coarsest size, so it starts from its hierarchy's.
        for (cols, rows) in [(12usize, 7usize), (120, 70)] {
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
            let x = whole_graph_fiedler(&tight, &grid);
            let err = distance_to_cosine(&x, |i| i % cols, cols);
            assert!(err < 1e-6, "{cols}x{rows} grid: {err:e}");
        }
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
        let x =
            RsbPartitioner::default().multilevel_fiedler(&star, &leaves, &mut local, &mut scans);
        assert_eq!(scans.0, 2);
        let mut start = start_vector(leaves.iter().map(|&v| hashed(v)));
        start.truncate(leaves.len());
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
    fn every_level_contracts_its_rows_and_sums_the_edges_between_them() {
        let g = shuffled_grid(60);
        let vertices: Vec<u32> = (0..g.nvertices() as u32).collect();
        let mut local = vec![u32::MAX; g.nvertices()];
        let finest = Subgraph::induced(&g, &vertices, &mut local);
        let levels = hierarchy(&finest);
        assert!(levels.len() >= 2, "{} coarse levels", levels.len());
        let mut fine = &finest;
        for (k, (coarse_of, coarse)) in levels.iter().enumerate() {
            let level = k + 1;
            let mc = coarse.len();
            assert_eq!(coarse_of.len(), fine.len(), "level {level}");
            assert!(mc * 20 <= fine.len() * 19, "level {level} shrinks by 5 %");
            // Every row in exactly one coarse vertex, and none empty; past
            // level 1 a coarse vertex is a matched pair or a single row.
            let mut rows = vec![0; mc];
            for &c in coarse_of {
                rows[c as usize] += 1;
            }
            assert!(
                rows.iter().all(|&r| r >= 1),
                "level {level}: an empty coarse vertex"
            );
            if level > 1 {
                assert!(
                    rows.iter().all(|&r| r <= 2),
                    "level {level}: more than a pair"
                );
            }
            // The fine edges between distinct coarse vertices, summed.
            let mut want: HashMap<(usize, usize), u32> = HashMap::new();
            for i in 0..fine.len() {
                for (j, w) in fine.row(i) {
                    let (c, d) = (coarse_of[i] as usize, coarse_of[j] as usize);
                    if c != d {
                        *want.entry((c, d)).or_default() += w;
                    }
                }
            }
            let mut got = HashMap::new();
            for c in 0..mc {
                let mut seen = HashSet::new();
                let mut degree = 0;
                for (d, w) in coarse.row(c) {
                    assert!(seen.insert(d), "level {level}: row {c} lists {d} twice");
                    got.insert((c, d), w);
                    degree += w;
                }
                assert_eq!(coarse.degree[c], f64::from(degree), "level {level} row {c}");
            }
            assert_eq!(got, want, "level {level}");
            assert_eq!(coarse.nnz, want.len(), "level {level}");
            fine = coarse;
        }
        assert!(fine.len() <= COARSEST || coarse_vertices(fine, true).1 * 20 > fine.len() * 19);
    }

    #[test]
    fn a_coarsened_set_partitions_identically_at_every_rank_count() {
        // 3 600 vertices: the top bisections start from their hierarchies.
        let g = shuffled_grid(60);
        for nparts in [2, 5] {
            let serial = RsbPartitioner::default().partition(&g, nparts);
            let q = PartitionQuality::evaluate(&g, &serial);
            assert!(
                q.load_imbalance <= 1.01,
                "nparts={nparts}: {}",
                q.load_imbalance
            );
            for nranks in [1, 3, 7, 64] {
                let chunked = RsbPartitioner::default().partition_with_scans(
                    &g,
                    nparts,
                    &mut SerialScans { nranks },
                );
                assert_eq!(serial, chunked, "nparts={nparts} nranks={nranks}");
            }
        }
        // A 60×60 grid's best bisection cuts 60 of its 7 080 edges.
        let halves = RsbPartitioner::default().partition(&g, 2);
        let cut = PartitionQuality::evaluate(&g, &halves).edge_cut;
        assert!(cut <= 90, "cut {cut}");
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
        let disjoint: Vec<(u32, u32)> = (0..600).map(|i| (2 * i, 2 * i + 1)).collect();
        let cases = [
            ("one edge, the rest isolated", graph(12, &[(3, 7)]), 4),
            ("complete K12", graph(12, &complete), 4),
            ("star", graph(12, &star), 4),
            ("two vertices", graph(2, &[(0, 1)]), 2),
            ("isolated vertices beside a cycle", graph(12, &beside), 4),
            // Above the coarsest size: level 1 is 600 isolated vertices.
            ("600 disjoint edges", graph(1200, &disjoint), 4),
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
