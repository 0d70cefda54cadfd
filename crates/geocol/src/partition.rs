//! Partitionings and the [`Partitioner`] trait.

use crate::geocol::{GeoCoL, Section};

/// The result of partitioning a GeoCoL graph: an owning processor for each
/// vertex. In the paper this is exactly the irregular `map` array passed to
/// `DISTRIBUTE irreg(map)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    owners: Vec<u32>,
    nparts: usize,
}

impl Partitioning {
    /// Build from an explicit owner array.
    ///
    /// # Panics
    /// Panics if any owner is `>= nparts`.
    pub fn new(owners: Vec<u32>, nparts: usize) -> Self {
        assert!(nparts > 0, "a partitioning needs at least one part");
        for (v, &o) in owners.iter().enumerate() {
            assert!(
                (o as usize) < nparts,
                "vertex {v} assigned to part {o} but only {nparts} parts exist"
            );
        }
        Partitioning { owners, nparts }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True when there are no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Number of parts (processors).
    #[inline]
    pub fn nparts(&self) -> usize {
        self.nparts
    }

    /// Owner of `vertex`.
    #[inline]
    pub fn owner(&self, vertex: usize) -> usize {
        self.owners[vertex] as usize
    }

    /// The full owner array (the paper's `map` array).
    #[inline]
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    /// Number of vertices owned by each part.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.nparts];
        for &o in &self.owners {
            sizes[o as usize] += 1;
        }
        sizes
    }

    /// Total load per part according to `geocol`'s load section.
    pub fn part_loads(&self, geocol: &GeoCoL) -> Vec<f64> {
        let mut loads = vec![0.0; self.nparts];
        for (v, &o) in self.owners.iter().enumerate() {
            loads[o as usize] += geocol.vertex_load(v);
        }
        loads
    }
}

/// The contiguous chunk of `0..n_items` assigned to `rank` by a
/// [`RankScans`] executor: `ceil(n/nranks)`-sized blocks, the trailing ones
/// possibly empty. Shared by every executor so that a scan's partial-sum
/// grouping — and therefore its floating-point result — depends only on the
/// rank count, never on the engine.
pub fn scan_chunk(n_items: usize, nranks: usize, rank: usize) -> std::ops::Range<usize> {
    let per = n_items.div_ceil(nranks.max(1));
    let start = (rank * per).min(n_items);
    let end = ((rank + 1) * per).min(n_items);
    start..end
}

/// A rank-local fold kernel handed to [`RankScans::scan`]: called as
/// `kernel(rank, range, acc)` with the rank's [`scan_chunk`] item range
/// and its slice of the scan's partials.
pub type ScanKernel<'a> = dyn Fn(usize, std::ops::Range<usize>, &mut [f64]) + Sync + 'a;

/// Number of consecutive items folded into one partial-accumulator block by
/// [`block_scan`]. The block boundaries depend only on the item count —
/// never on the rank count — which is what makes block-scan reductions
/// bit-identical across every rank count and engine (see [`block_scan`]).
pub const SCAN_BLOCK: usize = 1024;

/// A per-item-range fold used by [`map_scan`] and [`block_scan`]: called as
/// `fold(items, out)` where `out` has one slot per item ([`map_scan`]) or
/// `width` slots for the whole block ([`block_scan`]).
pub type RangeKernel<'a> = dyn Fn(std::ops::Range<usize>, &mut [f64]) + Sync + 'a;

/// Run an elementwise map rank-parallel through `scans`, writing item `i`
/// to `out[i]`.
///
/// Each rank computes `map(range, out)` for its [`scan_chunk`] item range,
/// writing `out[k]` for item `range.start + k`. Because every item's value
/// is computed by exactly one rank from shared inputs, the result is
/// **bit-identical for every rank count and engine** — this is how the RSB
/// partitioner's sparse matvec and Lanczos updates stay exact. The
/// rank-major partials of a `width == ceil(n/nranks)` scan are laid out so
/// that item `i` lands at global offset `i`, so the scan writes straight
/// into `out`.
///
/// `out` is a buffer the caller reuses across scans: it grows to the scan's
/// `ceil(n/nranks)·nranks` slots if it is shorter (with zeros), and every
/// entry from `n_items` on keeps its value, so a caller may keep data past
/// the items (RSB keeps a `0.0` there for its padded matvec).
pub fn map_scan(
    scans: &mut dyn RankScans,
    n_items: usize,
    ops_per_item: f64,
    out: &mut Vec<f64>,
    map: &RangeKernel<'_>,
) {
    if n_items == 0 {
        return;
    }
    let nranks = scans.nranks();
    let per = n_items.div_ceil(nranks.max(1));
    if out.len() < per * nranks {
        out.resize(per * nranks, 0.0);
    }
    // Rank r's chunk is [r*per, (r+1)*per) and its accumulator starts at
    // r*per, so the partials are already the output vector in item order.
    scans.scan(
        n_items,
        per,
        ops_per_item,
        &|_rank, range, acc| {
            let len = range.len();
            map(range, &mut acc[..len]);
        },
        &mut out[..per * nranks],
    );
}

/// Run a reduction rank-parallel through `scans` as fixed-size-block partial
/// sums, returning the per-block partials concatenated in ascending block
/// order (`ceil(n_items / SCAN_BLOCK)` blocks of `width` values each).
///
/// Items are grouped into [`SCAN_BLOCK`]-sized blocks; the *blocks* (not
/// the items) are chunked over the ranks with [`scan_chunk`], and each rank
/// calls `fold(item_range, acc)` once per block it owns, filling the
/// block's `width`-wide accumulator, which starts at zero. Callers combine
/// the returned blocks in ascending block order (sum, min, max, ...).
/// Because the block boundaries and each block's fold order depend only on
/// `n_items`, the combined result is **bit-identical for every rank count
/// and engine** — the single-chunk [`SerialScans::single`] executor behind
/// the pure [`Partitioner::partition`] entry points produces exactly the
/// same floating-point values as a backend-driven scan over any number of
/// ranks.
///
/// `ops_per_item` is the modeled compute charge per *item*: the per-block
/// charge handed to [`RankScans::scan`] is `ops_per_item` times the average
/// items per block, so the total charged over all ranks is exactly
/// `ops_per_item * n_items` (a partial tail block never bills a full
/// block's work).
pub fn block_scan(
    scans: &mut dyn RankScans,
    n_items: usize,
    width: usize,
    ops_per_item: f64,
    fold: &RangeKernel<'_>,
) -> Vec<f64> {
    assert!(width > 0, "block_scan needs at least one accumulator slot");
    let nblocks = n_items.div_ceil(SCAN_BLOCK);
    if nblocks == 0 {
        return Vec::new();
    }
    let nranks = scans.nranks();
    let blocks_per_rank = nblocks.div_ceil(nranks.max(1));
    let mut partials = vec![0.0; width * blocks_per_rank * nranks];
    scans.scan(
        nblocks,
        width * blocks_per_rank,
        ops_per_item * n_items as f64 / nblocks as f64,
        &|_rank, block_range, acc| {
            for (k, block) in block_range.enumerate() {
                let items = block * SCAN_BLOCK..((block + 1) * SCAN_BLOCK).min(n_items);
                fold(items, &mut acc[k * width..(k + 1) * width]);
            }
        },
        &mut partials,
    );
    // Compact the rank-major (padded) partials into block-major order.
    let mut out = vec![0.0; nblocks * width];
    for rank in 0..nranks {
        let blocks = scan_chunk(nblocks, nranks, rank);
        let acc = &partials[rank * blocks_per_rank * width..];
        out[blocks.start * width..blocks.end * width].copy_from_slice(&acc[..blocks.len() * width]);
    }
    out
}

/// Executor for rank-chunked data-parallel passes (maps and reduction
/// "scans").
///
/// Partitioners that have been restructured rank-parallel express their
/// per-vertex passes against this object-safe interface; the runtime's
/// mapper coupler hands them an implementation backed by the SPMD
/// `Backend` (so the scans run one chunk per virtual processor and are
/// charged to the simulated machine), while the pure
/// [`Partitioner::partition`] entry point uses the driver-side
/// [`SerialScans`]. Implementations must chunk with [`scan_chunk`] and
/// write each rank's partials into that rank's slice of the caller's
/// rank-major buffer; callers combine them in ascending rank order, which
/// keeps results engine-independent by construction.
///
/// Partitioner code does not usually call [`RankScans::scan`] raw: the
/// [`map_scan`] and [`block_scan`] helpers wrap it with conventions
/// (disjoint per-item writes; fixed-size-block partial sums) that make the
/// combined result independent of the *rank count* too, so a partitioning
/// computed through any backend is bit-identical to the pure serial one.
pub trait RankScans {
    /// Number of ranks the scan is folded over.
    fn nranks(&self) -> usize;

    /// Run `kernel(rank, range, acc)` once per rank, where `range` is
    /// [`scan_chunk`]`(n_items, nranks, rank)` and `acc` is rank `rank`'s
    /// `width`-wide slice of `partials` (`width × nranks` long, rank-major),
    /// as the caller left it: the scan neither clears nor allocates it.
    /// Charges `ops_per_item` modeled compute units per item to the
    /// executing rank (where a machine is attached).
    fn scan(
        &mut self,
        n_items: usize,
        width: usize,
        ops_per_item: f64,
        kernel: &ScanKernel<'_>,
        partials: &mut [f64],
    );
}

/// Driver-side [`RankScans`] executor: runs every chunk sequentially on the
/// calling thread and charges nothing. With one rank (the default) a scan
/// degenerates to the classic single-pass fold, which is what the pure
/// `Partitioner::partition` entry points use.
#[derive(Debug, Clone, Copy)]
pub struct SerialScans {
    /// Number of chunks the item range is folded over.
    pub nranks: usize,
}

impl SerialScans {
    /// A single-chunk executor (the classic sequential fold).
    pub fn single() -> Self {
        SerialScans { nranks: 1 }
    }
}

impl Default for SerialScans {
    fn default() -> Self {
        Self::single()
    }
}

impl RankScans for SerialScans {
    fn nranks(&self) -> usize {
        self.nranks
    }

    fn scan(
        &mut self,
        n_items: usize,
        width: usize,
        _ops_per_item: f64,
        kernel: &ScanKernel<'_>,
        partials: &mut [f64],
    ) {
        debug_assert_eq!(partials.len(), width * self.nranks);
        for (rank, acc) in partials.chunks_mut(width).enumerate() {
            kernel(rank, scan_chunk(n_items, self.nranks, rank), acc);
        }
    }
}

/// A data partitioner: maps a GeoCoL graph onto `nparts` parts.
///
/// Implementations must be deterministic for a given input (the reproduction
/// relies on repeatable experiments); any randomization must be seeded
/// internally with a fixed seed or derived from the input.
pub trait Partitioner {
    /// Short, stable name used by the directive `USING <name>` and printed in
    /// benchmark tables (e.g. `"RCB"`, `"RSB"`, `"BLOCK"`).
    fn name(&self) -> &'static str;

    /// The GeoCoL section this partitioner splits on, if any: `GEOMETRY`
    /// for RCB, `LINK` for RSB, none for the regular distributions.
    /// [`Partitioner::partition_with_scans`] panics on a GeoCoL without it.
    fn required_section(&self) -> Option<Section> {
        None
    }

    /// The section this partitioner requires and `geocol` lacks, if any:
    /// the check a caller with untrusted input makes before partitioning.
    fn missing_section(&self, geocol: &GeoCoL) -> Option<Section> {
        self.required_section().filter(|&s| !geocol.has(s))
    }

    /// Compute a partitioning of `geocol` into `nparts` parts — the
    /// partitioning [`Partitioner::partition_with_scans`] computes over a
    /// single-chunk [`SerialScans`].
    fn partition(&self, geocol: &GeoCoL, nparts: usize) -> Partitioning {
        self.partition_with_scans(geocol, nparts, &mut SerialScans::single())
    }

    /// Compute a partitioning of `geocol` into `nparts` parts with a
    /// [`RankScans`] executor the implementation may route its
    /// data-parallel passes through. Driver-side algorithms (`BLOCK`,
    /// `CYCLIC`) ignore the executor; partitioners restructured
    /// rank-parallel — `RSB`'s Lanczos matvecs and `RCB`'s
    /// extent/histogram median scans — use it, making them scale with
    /// ranks when the runtime passes a `Backend`-backed executor.
    ///
    /// The restructured partitioners express every pass through
    /// [`map_scan`] (disjoint per-item writes) or [`block_scan`]
    /// (fixed-size-block partial sums), so their output is bit-identical
    /// for **any** rank count — the pure [`Partitioner::partition`] entry
    /// point (a single-chunk [`SerialScans`]) is an exact oracle for every
    /// backend-driven run:
    ///
    /// ```
    /// use chaos_geocol::{GeoColBuilder, Partitioner, RcbPartitioner, SerialScans};
    ///
    /// let g = GeoColBuilder::new(64)
    ///     .geometry(vec![(0..64).map(|i| (i as f64 * 0.37).sin()).collect()])
    ///     .build()
    ///     .unwrap();
    /// let serial = RcbPartitioner.partition(&g, 4);
    /// // Folding the scans over 6 rank chunks instead of 1 changes nothing:
    /// let chunked = RcbPartitioner.partition_with_scans(&g, 4, &mut SerialScans { nranks: 6 });
    /// assert_eq!(serial, chunked);
    /// ```
    fn partition_with_scans(
        &self,
        geocol: &GeoCoL,
        nparts: usize,
        scans: &mut dyn RankScans,
    ) -> Partitioning;

    /// A rough cost estimate, in abstract "operations", of running this
    /// partitioner on `geocol`. The mapper coupler divides this by the
    /// processor count (all the library partitioners are parallelizable) and
    /// charges it to the simulated machine, which is how the paper's
    /// "partitioner" table rows arise — e.g. spectral bisection is roughly two
    /// orders of magnitude more expensive than coordinate bisection on the
    /// 53K mesh.
    fn cost_estimate(&self, geocol: &GeoCoL, nparts: usize) -> f64 {
        // Default: touch every vertex and edge once per level of recursion.
        let levels = (nparts.max(2) as f64).log2().ceil();
        (geocol.nvertices() + geocol.nedges()) as f64 * levels
    }
}

/// The recursive bisection behind RCB and RSB: assign
/// every vertex of `geocol` to one of `nparts` parts by splitting the active
/// vertex set in two, `nparts / 2` parts to the left and the rest to the
/// right, until each set is bound for one part.
///
/// `split(vertices, left_parts, nparts, scans)` is the partitioner's rule,
/// called on every active set of two or more vertices bound for two or more
/// parts: it reorders `vertices` so the ones bound for the first
/// `left_parts` parts are a prefix and returns the prefix length. Sets with
/// more parts than vertices leave the extra parts empty.
///
/// Panics if `geocol` lacks the section `partitioner` splits on
/// ([`Partitioner::required_section`]).
pub(crate) fn recursive_bisection(
    partitioner: &dyn Partitioner,
    geocol: &GeoCoL,
    nparts: usize,
    scans: &mut dyn RankScans,
    mut split: impl FnMut(&mut [u32], usize, usize, &mut dyn RankScans) -> usize,
) -> Partitioning {
    if let Some(section) = partitioner.missing_section(geocol) {
        panic!(
            "{} requires a {section} section in the GeoCoL structure",
            partitioner.name()
        );
    }
    let n = geocol.nvertices();
    let mut owners = vec![0u32; n];
    if n == 0 || nparts == 1 {
        return Partitioning::new(owners, nparts);
    }
    let mut vertices: Vec<u32> = (0..n as u32).collect();
    bisect(&mut vertices, 0, nparts, &mut owners, scans, &mut split);
    Partitioning::new(owners, nparts)
}

/// Assign `vertices` to parts `part_lo .. part_lo + nparts`.
fn bisect<F>(
    vertices: &mut [u32],
    part_lo: usize,
    nparts: usize,
    owners: &mut [u32],
    scans: &mut dyn RankScans,
    split: &mut F,
) where
    F: FnMut(&mut [u32], usize, usize, &mut dyn RankScans) -> usize,
{
    if nparts <= 1 || vertices.len() <= 1 {
        for &v in vertices.iter() {
            owners[v as usize] = part_lo as u32;
        }
        return;
    }
    let left_parts = nparts / 2;
    let at = split(vertices, left_parts, nparts, scans);
    let (left, right) = vertices.split_at_mut(at);
    bisect(left, part_lo, left_parts, owners, scans, split);
    bisect(
        right,
        part_lo + left_parts,
        nparts - left_parts,
        owners,
        scans,
        split,
    );
}

/// The load a split sends left: the `left_parts / nparts` share of
/// `total_load`.
pub(crate) fn left_target(total_load: f64, left_parts: usize, nparts: usize) -> f64 {
    total_load * left_parts as f64 / nparts as f64
}

/// Sort `vertices` by `keys` (parallel to `vertices`, one key per vertex),
/// ties broken by vertex id so the order is unique.
///
/// # Panics
/// Panics if a key is NaN.
pub(crate) fn sort_by_key(vertices: &mut [u32], keys: &[f64]) {
    debug_assert_eq!(keys.len(), vertices.len(), "one key per vertex");
    let mut keyed: Vec<(u64, u32)> = keys
        .iter()
        .zip(vertices.iter())
        .map(|(&k, &v)| (ordered_bits(k), v))
        .collect();
    keyed.sort_unstable();
    for (v, (_, id)) in vertices.iter_mut().zip(keyed) {
        *v = id;
    }
}

/// The image of a non-NaN `key` under a map to `u64` that preserves the
/// order `partial_cmp` gives: `-0.0` folds into `+0.0` (which `partial_cmp`
/// calls equal), then a positive key gets its sign bit set and a negative
/// key has every bit flipped.
///
/// # Panics
/// Panics if `key` is NaN.
fn ordered_bits(key: f64) -> u64 {
    assert!(!key.is_nan(), "a partition key is NaN");
    let bits = (key + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The weighted-median walk: add the loads of `vertices`, in order, to
/// `start` and return how many it takes to reach `target` (all of them if
/// the sum never does).
pub(crate) fn load_prefix(geocol: &GeoCoL, vertices: &[u32], start: f64, target: f64) -> usize {
    let mut acc = start;
    for (i, &v) in vertices.iter().enumerate() {
        acc += geocol.vertex_load(v as usize);
        if acc >= target {
            return i + 1;
        }
    }
    vertices.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geocol::GeoColBuilder;

    #[test]
    fn members_and_sizes_are_consistent() {
        let p = Partitioning::new(vec![0, 1, 1, 0, 2], 3);
        assert_eq!(p.len(), 5);
        assert_eq!(p.nparts(), 3);
        assert_eq!(p.part_sizes(), vec![2, 2, 1]);
        assert_eq!(p.owners(), &[0, 1, 1, 0, 2]);
        assert_eq!(p.owner(2), 1);
    }

    #[test]
    fn part_loads_use_geocol_weights() {
        let g = GeoColBuilder::new(4)
            .load(vec![1.0, 2.0, 3.0, 4.0])
            .build()
            .unwrap();
        let p = Partitioning::new(vec![0, 0, 1, 1], 2);
        assert_eq!(p.part_loads(&g), vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "only 2 parts exist")]
    fn rejects_out_of_range_owner() {
        let _ = Partitioning::new(vec![0, 2], 2);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn rejects_zero_parts() {
        let _ = Partitioning::new(vec![], 0);
    }

    #[test]
    fn empty_partitioning_is_fine() {
        let p = Partitioning::new(vec![], 4);
        assert!(p.is_empty());
        assert_eq!(p.part_sizes(), vec![0; 4]);
    }

    #[test]
    fn scan_chunks_cover_the_range_in_order() {
        for (n, ranks) in [(10, 3), (7, 7), (3, 8), (0, 4), (4096, 5)] {
            let mut next = 0;
            for r in 0..ranks {
                let c = scan_chunk(n, ranks, r);
                assert_eq!(c.start, next.min(n));
                next = c.end;
            }
            assert_eq!(next, n, "chunks must cover 0..{n} exactly");
        }
    }

    #[test]
    fn map_scan_is_rank_count_independent() {
        let data: Vec<f64> = (0..777).map(|i| (i as f64 * 0.13).cos()).collect();
        let expect: Vec<f64> = data.iter().map(|v| v * 3.0 - 1.0).collect();
        for nranks in [1, 2, 5, 16, 1000] {
            let mut got = Vec::new();
            map_scan(
                &mut SerialScans { nranks },
                data.len(),
                2.0,
                &mut got,
                &|range, out| {
                    for (k, i) in range.enumerate() {
                        out[k] = data[i] * 3.0 - 1.0;
                    }
                },
            );
            assert!(got.len() >= expect.len());
            for (a, b) in got.iter().zip(&expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "nranks={nranks}");
            }
        }
    }

    #[test]
    fn a_reused_map_scan_buffer_leaks_nothing() {
        let data: Vec<f64> = (0..333).map(|i| (i as f64 * 0.29).sin()).collect();
        let map: &RangeKernel<'_> = &|range, out| {
            for (k, i) in range.enumerate() {
                out[k] = data[i] * data[i] - 0.5;
            }
        };
        for nranks in [1, 2, 7, 64, 500] {
            let mut fresh = Vec::new();
            map_scan(
                &mut SerialScans { nranks },
                data.len(),
                1.0,
                &mut fresh,
                map,
            );
            // Longer than the scan's padded length, and NaN throughout.
            let mut reused = vec![f64::NAN; data.len() + 600];
            map_scan(
                &mut SerialScans { nranks },
                data.len(),
                1.0,
                &mut reused,
                map,
            );
            assert_eq!(
                reused.len(),
                data.len() + 600,
                "a long buffer keeps its length"
            );
            for (i, (a, b)) in reused.iter().zip(&fresh).take(data.len()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "nranks={nranks} item {i}");
            }
            assert!(
                reused[data.len()..].iter().all(|v| v.is_nan()),
                "nranks={nranks}: a slot past the items was written"
            );
            // A short buffer grows, and the slot it held past the items
            // survives the scan.
            let mut short = vec![0.0; data.len() + 1];
            short[data.len()] = 7.0;
            map_scan(
                &mut SerialScans { nranks },
                data.len(),
                1.0,
                &mut short,
                map,
            );
            assert_eq!(short[..data.len()], fresh[..data.len()], "nranks={nranks}");
            assert_eq!(short[data.len()], 7.0, "nranks={nranks}");
        }
    }

    #[test]
    fn block_scan_sums_are_rank_count_independent() {
        // Enough items for several blocks, awkwardly misaligned with both
        // the block size and every chunking swept below.
        let data: Vec<f64> = (0..SCAN_BLOCK * 3 + 517)
            .map(|i| (i as f64 * 0.7).sin() + 0.01 * i as f64)
            .collect();
        let fold: &RangeKernel<'_> = &|items, acc| {
            for i in items {
                acc[0] += data[i];
                acc[1] += data[i] * data[i];
            }
        };
        let reference = block_scan(&mut SerialScans::single(), data.len(), 2, 2.0, fold);
        assert_eq!(reference.len(), data.len().div_ceil(SCAN_BLOCK) * 2);
        // Each block's partials are its fold from zero.
        for (block, sums) in reference.chunks_exact(2).enumerate() {
            let mut want = [0.0; 2];
            fold(
                block * SCAN_BLOCK..((block + 1) * SCAN_BLOCK).min(data.len()),
                &mut want,
            );
            assert_eq!(sums, want, "block {block}");
        }
        for nranks in [2, 3, 7, 64] {
            let got = block_scan(&mut SerialScans { nranks }, data.len(), 2, 2.0, fold);
            for (a, b) in got.iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits(), "nranks={nranks}");
            }
        }
    }

    #[test]
    fn scans_handle_empty_inputs() {
        let mut scans = SerialScans { nranks: 4 };
        let mut out = Vec::new();
        map_scan(&mut scans, 0, 1.0, &mut out, &|_, _| {});
        assert!(out.is_empty());
        assert!(block_scan(&mut scans, 0, 3, 1.0, &|_, _| {}).is_empty());
    }

    /// The order `sort_by_key` promises: `partial_cmp` on the keys, then
    /// the vertex id.
    fn reference_sort(vertices: &mut [u32], keys: &[f64]) {
        let mut keyed: Vec<(f64, u32)> =
            keys.iter().copied().zip(vertices.iter().copied()).collect();
        keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        for (v, (_, id)) in vertices.iter_mut().zip(keyed) {
            *v = id;
        }
    }

    #[test]
    fn sort_by_key_is_the_partial_cmp_then_id_order() {
        let tiny = f64::from_bits(1);
        let specials = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            tiny,
            -tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
            1.0 + f64::EPSILON,
            -1.5,
            2.5e-300,
            -2.5e-300,
        ];
        // Every special twice (repeats across ids) plus a pseudo-random tail
        // drawn from the specials and from a spread of negatives.
        let mut keys: Vec<f64> = specials.iter().chain(&specials).copied().collect();
        let mut state = 7u64;
        for _ in 0..500 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pick = (state >> 33) as usize;
            keys.push(if pick.is_multiple_of(3) {
                specials[pick % specials.len()]
            } else {
                ((pick % 2001) as f64 - 1000.0) * 0.125
            });
        }
        // Ids in a scrambled order, so the id tie-break does real work.
        let ids: Vec<u32> = (0..keys.len() as u32)
            .map(|i| (i * 7919) % keys.len() as u32)
            .collect();
        let mut got = ids.clone();
        sort_by_key(&mut got, &keys);
        let mut want = ids;
        reference_sort(&mut want, &keys);
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "a partition key is NaN")]
    fn sort_by_key_rejects_a_nan_key() {
        sort_by_key(&mut [0, 1, 2], &[1.0, f64::NAN, 0.0]);
    }
}
