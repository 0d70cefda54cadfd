//! The mapper coupler: runtime procedures behind the paper's `CONSTRUCT`,
//! `SET ... BY PARTITIONING ... USING ...` and `REDISTRIBUTE` directives
//! (Section 4, Figures 4–6).
//!
//! The coupler runs the first three phases of Figure 2:
//!
//! * **Phase A** — build the GeoCoL structure from program arrays
//!   (geometry / connectivity / load sections) and run a partitioner on it,
//! * **Phase B** — partition loop iterations using the new data
//!   distribution (delegated to [`crate::iterpart`]),
//! * **Phase C** — remap distributed arrays (and the iteration-aligned
//!   indirection arrays) to the new distribution.
//!
//! All communication and computation is charged to the simulated machine,
//! with phase kinds set so the harness can report the same rows as Table 2
//! (graph generation, partitioner, remap, ...).

use crate::darray::DistArray;
use crate::dist::Distribution;
use crate::remap::RemapPlan;
use crate::reuse::ReuseRegistry;
use chaos_dmsim::{Backend, Machine, PhaseKind};
use chaos_geocol::{
    scan_chunk, GeoCoL, GeoColBuilder, GeoColError, Partitioner, Partitioning, RankScans,
    ScanKernel,
};

/// Description of the arrays feeding a `CONSTRUCT` directive.
///
/// Every section is optional, mirroring the directive: geometry
/// (`GEOMETRY(dim, xc, yc, zc)`), load (`LOAD(weight)`) and connectivity
/// (`LINK(E, end_pt1, end_pt2)`).
#[derive(Debug, Default)]
pub struct GeoColSpec<'a> {
    /// Number of GeoCoL vertices (the size of the decomposition being
    /// partitioned).
    pub nvertices: usize,
    /// Coordinate arrays, one per spatial axis, each aligned with the
    /// decomposition being partitioned.
    pub geometry: Vec<&'a DistArray<f64>>,
    /// Per-vertex computational load.
    pub load: Option<&'a DistArray<f64>>,
    /// Edge endpoint arrays (aligned with the *edge* decomposition).
    pub link: Option<(&'a DistArray<u32>, &'a DistArray<u32>)>,
}

impl<'a> GeoColSpec<'a> {
    /// Start a spec for `nvertices` vertices.
    pub fn new(nvertices: usize) -> Self {
        GeoColSpec {
            nvertices,
            ..Default::default()
        }
    }

    /// Add a GEOMETRY section.
    pub fn with_geometry(mut self, axes: Vec<&'a DistArray<f64>>) -> Self {
        self.geometry = axes;
        self
    }

    /// Add a LOAD section.
    pub fn with_load(mut self, load: &'a DistArray<f64>) -> Self {
        self.load = Some(load);
        self
    }

    /// Add a LINK section.
    pub fn with_link(mut self, e1: &'a DistArray<u32>, e2: &'a DistArray<u32>) -> Self {
        self.link = Some((e1, e2));
        self
    }
}

/// [`RankScans`] executor backed by [`Backend::run_compute`]: each scan
/// chunks the item range over the machine's virtual processors and runs one
/// fold kernel per rank (charging `ops_per_item` compute units per item to
/// that rank's clock) on that rank's slice of the caller's rank-major
/// partials, which the caller combines in ascending rank order. This is how
/// partitioners that implement `partition_with_scans` — RSB's Lanczos
/// matvecs, moment reductions and updates, RCB's extent/histogram median
/// scans — run rank-parallel on every engine. The
/// partitioners build every pass from `chaos_geocol`'s `map_scan` /
/// `block_scan` conventions (disjoint per-item writes; fixed-size-block
/// partial sums), so the partitioning they produce through any backend is
/// bit-identical to the pure serial `Partitioner::partition` oracle.
struct BackendScans<'a, B: Backend> {
    backend: &'a mut B,
    /// Total compute units charged through the scans (all ranks), so the
    /// coupler can deduct the routed work from the partitioner's lump-sum
    /// `cost_estimate` and avoid charging it twice.
    charged_ops: f64,
}

impl<B: Backend> RankScans for BackendScans<'_, B> {
    fn nranks(&self) -> usize {
        self.backend.nprocs()
    }

    fn scan(
        &mut self,
        n_items: usize,
        width: usize,
        ops_per_item: f64,
        kernel: &ScanKernel<'_>,
        partials: &mut [f64],
    ) {
        let nranks = self.backend.nprocs();
        debug_assert_eq!(partials.len(), width * nranks);
        self.backend
            .run_compute(partials.chunks_mut(width), |ctx, acc: &mut [f64]| {
                let rank = ctx.rank();
                let range = scan_chunk(n_items, nranks, rank);
                ctx.charge_compute(rank, ops_per_item * range.len() as f64);
                kernel(rank, range, acc);
            });
        self.charged_ops += ops_per_item * n_items as f64;
    }
}

/// The result of `SET distfmt BY PARTITIONING G USING <partitioner>`.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// The vertex → processor assignment (the paper's `map` array).
    pub partitioning: Partitioning,
    /// The irregular distribution built from it (the paper's `distfmt`).
    pub distribution: Distribution,
}

/// The mapper coupler. Stateless; every call charges the machine it is
/// given.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapperCoupler;

impl MapperCoupler {
    /// Phase A, first half: generate the GeoCoL structure from program
    /// arrays (the `CONSTRUCT` directive).
    ///
    /// The sections are distributed arrays; assembling the standardized
    /// structure requires gathering them (an all-gather-style exchange whose
    /// volume is the size of the sections), which is the "graph generation"
    /// row of Table 2.
    ///
    /// # Panics
    /// Panics if the sections do not form a valid GeoCoL structure; a
    /// caller whose sections come from a program uses
    /// [`Self::try_construct_geocol`].
    pub fn construct_geocol(&self, machine: &mut Machine, spec: &GeoColSpec<'_>) -> GeoCoL {
        self.try_construct_geocol(machine, spec)
            .expect("CONSTRUCT directive produced an invalid GeoCoL structure")
    }

    /// [`Self::construct_geocol`], with an invalid structure — a LINK
    /// endpoint outside the vertex range, endpoint lists or sections of the
    /// wrong length — returned as the builder's error. The gather is charged
    /// either way, as the directive ran.
    pub fn try_construct_geocol(
        &self,
        machine: &mut Machine,
        spec: &GeoColSpec<'_>,
    ) -> Result<GeoCoL, GeoColError> {
        let prev = machine.set_phase_kind(Some(PhaseKind::GraphGeneration));

        let mut builder = GeoColBuilder::new(spec.nvertices);
        let mut gathered_words = 0usize;

        if !spec.geometry.is_empty() {
            let axes: Vec<Vec<f64>> = spec
                .geometry
                .iter()
                .map(|a| {
                    gathered_words += a.len();
                    a.to_global()
                })
                .collect();
            builder = builder.geometry(axes);
        }
        if let Some(load) = spec.load {
            gathered_words += load.len();
            builder = builder.load(load.to_global());
        }
        if let Some((e1, e2)) = spec.link {
            gathered_words += e1.len() + e2.len();
            builder = builder.link(e1.to_global(), e2.to_global());
        }

        // Charge the gather of the section arrays: every processor
        // contributes its local pieces and receives the assembled structure
        // (ring all-gather volume ≈ section size per processor).
        let nprocs = machine.nprocs();
        let per_proc_words = gathered_words as f64 / nprocs as f64;
        for p in 0..nprocs {
            machine.charge_memory(p, gathered_words as f64);
            machine.charge_compute(p, per_proc_words);
        }
        // One representative ring exchange to account for the messages (cost
        // only; the structure is assembled directly above).
        let mut phase = chaos_dmsim::PhaseCharge::new();
        for src in 0..nprocs {
            let dst = (src + 1) % nprocs;
            if src != dst {
                machine.charge_p2p(
                    &mut phase,
                    src,
                    dst,
                    (per_proc_words.ceil() as usize).max(1),
                );
            }
        }
        machine.end_phase(phase);

        let geocol = builder.build();
        machine.set_phase_kind(prev);
        geocol
    }

    /// Phase A, second half: run a partitioner over the GeoCoL structure
    /// (the `SET ... BY PARTITIONING ... USING <name>` directive) and build
    /// the irregular distribution from its output.
    ///
    /// The partitioner itself runs as a parallelized library routine: its
    /// estimated operation count is divided across the processors, and the
    /// resulting map array is exchanged so that every processor learns the
    /// new distribution. Partitioners that implement `partition_with_scans`
    /// (RSB, RCB) additionally run their per-vertex map and
    /// reduction passes rank-parallel through the backend — on the pooled
    /// engine the `SET ... BY PARTITIONING` phase of a program therefore
    /// executes on the worker lanes, not only the driver. The
    /// work those scans charge per rank is deducted from the lump-sum
    /// estimate so it is never counted twice, and the partitioning is
    /// bit-identical to the pure serial `Partitioner::partition` on every
    /// engine and rank count.
    ///
    /// The remainder is clamped at zero, so the modeled partitioner time is
    /// at least the estimate's parallel share, plus the time ranks wait at
    /// the scans for the busiest one. For RSB on the meshes here the scans'
    /// ops fall far under the estimate: each active set's Lanczos run starts
    /// from its coarsened hierarchy's Fiedler vector and takes a few steps.
    /// The remainder stands for the driver-side coarsening and coarse
    /// solves.
    pub fn partition<B: Backend>(
        &self,
        backend: &mut B,
        partitioner: &dyn Partitioner,
        geocol: &GeoCoL,
    ) -> PartitionOutcome {
        let prev = backend
            .machine_mut()
            .set_phase_kind(Some(PhaseKind::Partitioner));
        let nprocs = backend.nprocs();

        let mut scans = BackendScans {
            backend,
            charged_ops: 0.0,
        };
        let partitioning = partitioner.partition_with_scans(geocol, nprocs, &mut scans);
        let scan_ops = scans.charged_ops;
        let machine = backend.machine_mut();

        // Modeled cost: parallel share of the partitioner's remaining work
        // (what the rank-parallel scans already charged is deducted)…
        let ops = ((partitioner.cost_estimate(geocol, nprocs) - scan_ops) / nprocs as f64).max(0.0);
        machine.charge_compute_all(ops);
        // …plus an all-gather of the map array so every processor holds the
        // new translation information (cost only; the map is shared state).
        let map_words_per_proc = geocol.nvertices().div_ceil(nprocs).max(1);
        let mut phase = chaos_dmsim::PhaseCharge::new();
        for src in 0..nprocs {
            for dst in 0..nprocs {
                if src != dst {
                    machine.charge_p2p(&mut phase, src, dst, map_words_per_proc);
                }
            }
        }
        machine.end_phase(phase);

        // The new irregular distribution's paged translation table makes
        // subsequent inspectors pay the dereference communication the paper
        // measures.
        let distribution = Distribution::irregular_from_map(partitioning.owners(), nprocs);
        machine.set_phase_kind(prev);
        PartitionOutcome {
            partitioning,
            distribution,
        }
    }

    /// Phase C: remap an array to the newly computed distribution (the
    /// `REDISTRIBUTE` directive), recording the DAD change in the reuse
    /// registry so that dependent inspectors are invalidated: the one-array
    /// case of [`MapperCoupler::redistribute_through`].
    pub fn redistribute<T: Clone + Default + Send + Sync, B: Backend>(
        &self,
        backend: &mut B,
        registry: &mut ReuseRegistry,
        array: &mut DistArray<T>,
        new_dist: &Distribution,
    ) -> usize {
        let plan = RemapPlan::new(array.dist(), new_dist);
        self.redistribute_through(backend, registry, &plan, array)
    }

    /// Phase C through a [`RemapPlan`] built once for every array making the
    /// same move: the data movement runs rank-parallel through
    /// [`Backend::run_phase`] under [`PhaseKind::Remap`], and the DAD change
    /// is recorded in the reuse registry. Returns the number of elements
    /// that changed owner.
    pub fn redistribute_through<T: Clone + Default + Send + Sync, B: Backend>(
        &self,
        backend: &mut B,
        registry: &mut ReuseRegistry,
        plan: &RemapPlan,
        array: &mut DistArray<T>,
    ) -> usize {
        let prev = backend.machine_mut().set_phase_kind(Some(PhaseKind::Remap));
        let old_dad = array.dad();
        let moved = plan.apply(backend, array);
        registry.record_remap(&old_dad, &array.dad());
        backend.machine_mut().set_phase_kind(prev);
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_dmsim::MachineConfig;
    use chaos_geocol::{PartitionQuality, RcbPartitioner, RsbPartitioner, Section};

    /// A small 2-D grid workload: node coordinate arrays plus an edge list,
    /// all block-distributed initially.
    struct Fixture {
        machine: Machine,
        xc: DistArray<f64>,
        yc: DistArray<f64>,
        e1: DistArray<u32>,
        e2: DistArray<u32>,
        nnodes: usize,
    }

    fn fixture(side: usize, nprocs: usize) -> Fixture {
        let nnodes = side * side;
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for r in 0..side {
            for c in 0..side {
                xs.push(c as f64);
                ys.push(r as f64);
                let v = (r * side + c) as u32;
                if c + 1 < side {
                    e1.push(v);
                    e2.push(v + 1);
                }
                if r + 1 < side {
                    e1.push(v);
                    e2.push(v + side as u32);
                }
            }
        }
        let nedges = e1.len();
        let machine = Machine::new(MachineConfig::unit(nprocs));
        Fixture {
            machine,
            xc: DistArray::from_global("xc", Distribution::block(nnodes, nprocs), &xs),
            yc: DistArray::from_global("yc", Distribution::block(nnodes, nprocs), &ys),
            e1: DistArray::from_global("end_pt1", Distribution::block(nedges, nprocs), &e1),
            e2: DistArray::from_global("end_pt2", Distribution::block(nedges, nprocs), &e2),
            nnodes,
        }
    }

    #[test]
    fn construct_geocol_assembles_all_sections() {
        let mut f = fixture(6, 4);
        let spec = GeoColSpec::new(f.nnodes)
            .with_geometry(vec![&f.xc, &f.yc])
            .with_link(&f.e1, &f.e2);
        let g = MapperCoupler.construct_geocol(&mut f.machine, &spec);
        assert_eq!(g.nvertices(), 36);
        assert_eq!(g.nedges(), 60);
        assert!(g.has(Section::Geometry) && g.has(Section::Link));
        // Graph-generation phase must have been charged.
        let stats = f.machine.stats().totals_for(PhaseKind::GraphGeneration);
        assert!(stats.phases > 0);
        assert!(f.machine.elapsed().max_seconds() > 0.0);
    }

    #[test]
    fn partition_produces_usable_irregular_distribution() {
        let mut f = fixture(8, 4);
        let spec = GeoColSpec::new(f.nnodes)
            .with_geometry(vec![&f.xc, &f.yc])
            .with_link(&f.e1, &f.e2);
        let g = MapperCoupler.construct_geocol(&mut f.machine, &spec);
        let out = MapperCoupler.partition(&mut f.machine, &RcbPartitioner, &g);
        assert_eq!(out.partitioning.len(), 64);
        assert_eq!(out.distribution.len(), 64);
        assert_eq!(out.distribution.kind_name(), "IRREGULAR");
        let q = PartitionQuality::evaluate(&g, &out.partitioning);
        assert!(q.load_imbalance < 1.1);
        assert!(f.machine.stats().totals_for(PhaseKind::Partitioner).phases > 0);
    }

    #[test]
    fn rsb_partition_charges_more_than_rcb() {
        let mut f1 = fixture(8, 4);
        let spec = GeoColSpec::new(f1.nnodes)
            .with_geometry(vec![&f1.xc, &f1.yc])
            .with_link(&f1.e1, &f1.e2);
        let g = MapperCoupler.construct_geocol(&mut f1.machine, &spec);
        let before = f1.machine.elapsed();
        let _ = MapperCoupler.partition(&mut f1.machine, &RcbPartitioner, &g);
        let rcb_time = f1.machine.elapsed().since(&before).max_seconds();
        let before = f1.machine.elapsed();
        let _ = MapperCoupler.partition(&mut f1.machine, &RsbPartitioner::default(), &g);
        let rsb_time = f1.machine.elapsed().since(&before).max_seconds();
        assert!(
            rsb_time > 2.0 * rcb_time,
            "RSB ({rsb_time}) should cost much more than RCB ({rcb_time})"
        );
    }

    #[test]
    fn scan_partitioners_match_the_serial_oracle_on_every_engine() {
        use chaos_dmsim::PooledBackend;
        use chaos_geocol::Partitioner;
        // RSB and RCB route their scans through the backend; the
        // resulting partitioning must equal the pure serial partition()
        // bit for bit on both engines (the pool with ranks folded onto 3
        // lanes and with one lane per rank), and the engines must agree on
        // the modeled clocks.
        let mut f = fixture(12, 4);
        let spec = GeoColSpec::new(f.nnodes)
            .with_geometry(vec![&f.xc, &f.yc])
            .with_link(&f.e1, &f.e2);
        let g = MapperCoupler.construct_geocol(&mut f.machine, &spec);
        let rsb = RsbPartitioner::default();
        let partitioners: [&dyn Partitioner; 2] = [&RcbPartitioner, &rsb];
        for p in partitioners {
            let oracle = p.partition(&g, 4);
            let mut seq = Machine::new(MachineConfig::unit(4));
            let a = MapperCoupler.partition(&mut seq, p, &g);
            assert_eq!(a.partitioning, oracle, "{} vs serial oracle", p.name());
            for workers in [3, 4] {
                let mut pool =
                    PooledBackend::from_config_with_workers(MachineConfig::unit(4), workers);
                let b = MapperCoupler.partition(&mut pool, p, &g);
                assert_eq!(b.partitioning, oracle, "{} pooled/{workers}", p.name());
                assert_eq!(seq.elapsed(), pool.machine().elapsed(), "{}", p.name());
            }
        }
    }

    #[test]
    fn redistribute_moves_data_and_invalidates_dads() {
        let mut f = fixture(6, 4);
        let data: Vec<f64> = (0..f.nnodes).map(|i| i as f64).collect();
        let mut x = DistArray::from_global("x", Distribution::block(f.nnodes, 4), &data);
        let mut registry = ReuseRegistry::new();

        let spec = GeoColSpec::new(f.nnodes)
            .with_geometry(vec![&f.xc, &f.yc])
            .with_link(&f.e1, &f.e2);
        let g = MapperCoupler.construct_geocol(&mut f.machine, &spec);
        let out = MapperCoupler.partition(&mut f.machine, &RcbPartitioner, &g);

        let old_dad = x.dad();
        let nmod_before = registry.nmod();
        let moved =
            MapperCoupler.redistribute(&mut f.machine, &mut registry, &mut x, &out.distribution);
        assert_eq!(x.to_global(), data, "redistribution preserves values");
        assert!(moved > 0);
        assert!(registry.nmod() > nmod_before);
        assert_ne!(x.dad(), old_dad);
        assert!(f.machine.stats().totals_for(PhaseKind::Remap).phases > 0);
    }

    #[test]
    fn load_only_spec_builds() {
        let mut f = fixture(4, 2);
        let load =
            DistArray::from_global("w", Distribution::block(f.nnodes, 2), &vec![2.0; f.nnodes]);
        let spec = GeoColSpec::new(f.nnodes).with_load(&load);
        let g = MapperCoupler.construct_geocol(&mut f.machine, &spec);
        assert!(!g.has(Section::Geometry));
        assert!((0..g.nvertices()).all(|v| g.vertex_load(v) == 2.0));
    }
}
