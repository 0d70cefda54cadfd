//! The rank-parallel SPMD engine must be **byte-identical** to the
//! sequential one — array values, ghost buffers, modeled clocks and
//! communication statistics. Determinism is part of the `Backend` API, not
//! best-effort: these tests drive randomized mesh-style pipelines and the
//! full mesh / MD experiments through both engines — `Machine` (sequential
//! oracle) and `PooledBackend` (persistent worker pool) — and compare every
//! observable, including the f64 bit patterns of the clocks. The pool runs
//! with one lane per rank (every rank on its own OS thread, all live at
//! once), with more ranks than lanes (striping) and with more lanes than
//! ranks (idle lanes).

use chaos_repro::dmsim::{Backend, PooledBackend, RankCtx};
use chaos_repro::geocol::{
    GeoCoL, GeoColBuilder, Partitioner, Partitioning, RcbPartitioner, RsbPartitioner,
};
use chaos_repro::prelude::*;
use proptest::prelude::*;

mod pipeline;
use pipeline::{build_pattern, run_pipeline};

/// This suite's salt for [`build_pattern`].
const SALT: u64 = 11;

/// Strategy: a processor count, a map array and a reference pattern seed.
fn workload_strategy() -> impl Strategy<Value = (usize, Vec<u32>, u64, usize)> {
    (2usize..=8).prop_flat_map(|p| {
        (16usize..300).prop_flat_map(move |n| {
            (
                Just(p),
                proptest::collection::vec(0u32..p as u32, n),
                0u64..1000,
                1usize..40,
            )
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property: over randomized irregular workloads, the sequential and
    /// pooled engines agree on values, ghost buffers, modeled clocks and
    /// statistics, bit for bit. One pool has a lane per rank; the other's worker count is derived from the seed so
    /// the sweep covers ranks > workers (striping) and workers > ranks
    /// (idle lanes).
    #[test]
    fn both_engines_agree_on_random_workloads(
        (p, map, seed, refs_per_proc) in workload_strategy(),
    ) {
        let n = map.len();
        let dist = Distribution::irregular_from_map(&map, p);
        let data: Vec<f64> = (0..n).map(|i| (i as f64) * 0.37 - 5.0).collect();
        let pattern = build_pattern(p, n, seed, refs_per_proc, SALT);

        let cfg = || MachineConfig::unit(p);
        let mut seq = Machine::new(cfg());
        let obs_seq = run_pipeline(&mut seq, &dist, &data, &pattern);
        // One lane per rank, then 1..=12 workers: below, at and above the
        // rank count (2..=8).
        for workers in [p, 1 + (seed as usize % 12)] {
            let mut pool = PooledBackend::from_config_with_workers(cfg(), workers);
            let obs_pool = run_pipeline(&mut pool, &dist, &data, &pattern);
            prop_assert_eq!(&obs_seq, &obs_pool, "workers={}", workers);
        }
    }
}

/// Stress: many more virtual processors (64) than pool lanes (5) — every
/// lane runs a 12- or 13-rank stripe and the recorded charges must still
/// replay to the exact sequential state.
#[test]
fn pool_with_more_ranks_than_workers_is_exact() {
    let p = 64;
    let n = 4096;
    let map: Vec<u32> = (0..n).map(|i| ((i * 31 + i / 7) % p) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, p);
    let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin() + 2.0).collect();
    let pattern = build_pattern(p, n, 0xC4A05, 512, SALT);

    let cfg = || MachineConfig::unit(p);
    let mut seq = Machine::new(cfg());
    let mut pool = PooledBackend::with_workers(Machine::new(cfg()), 5);
    let obs_seq = run_pipeline(&mut seq, &dist, &data, &pattern);
    let obs_pool = run_pipeline(&mut pool, &dist, &data, &pattern);
    assert_eq!(obs_seq, obs_pool);
    assert!(
        obs_seq.totals[0].0 > 0,
        "the stress workload must communicate"
    );
}

/// Stress the opposite imbalance: a pool with far more workers (32) than
/// ranks (4) — the idle lanes run empty stripes through
/// every barrier and must not perturb anything.
#[test]
fn pool_with_more_workers_than_cores_is_exact() {
    let p = 4;
    let n = 512;
    let map: Vec<u32> = (0..n).map(|i| ((i * 13 + 3) % p) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, p);
    let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).cos() - 1.0).collect();
    let pattern = build_pattern(p, n, 0xBEEF, 96, SALT);

    let cfg = || MachineConfig::unit(p);
    let mut seq = Machine::new(cfg());
    let mut pool = PooledBackend::with_workers(Machine::new(cfg()), 32);
    let obs_seq = run_pipeline(&mut seq, &dist, &data, &pattern);
    let obs_pool = run_pipeline(&mut pool, &dist, &data, &pattern);
    assert_eq!(obs_seq, obs_pool);
}

/// What [`drive_every_entry_point`] observes on an engine.
#[derive(Debug, PartialEq)]
struct RegionsObservation {
    values: Vec<u64>,
    clock_bits: Vec<(u64, u64, u64)>,
    traffic: (usize, usize, usize, u64),
    epoch: u64,
}

/// One region through each of the three `Backend` entry points —
/// `run_compute`, `run_phase`, `run_sweep` — each charging
/// and each feeding its values to the next: the values, the clock bits and
/// the traffic totals afterwards.
fn drive_every_entry_point<B: Backend>(backend: &mut B) -> RegionsObservation {
    let n = backend.nprocs();
    let mut v = vec![0.0f64; n];
    backend.run_compute(v.iter_mut(), |ctx, s| {
        ctx.charge_compute(ctx.rank(), 1.0 + ctx.rank() as f64);
        *s = ctx.rank() as f64 * 0.5;
    });
    let ring = |ctx: &mut chaos_repro::dmsim::RankCtx<'_>| {
        let r = ctx.rank();
        ctx.charge_memory(r, 2.0);
        ctx.charge_p2p(r, (r + 1) % ctx.nprocs(), 2);
    };
    backend.run_phase(ring, v.iter_mut(), |ctx, s| {
        ctx.charge_compute(ctx.rank(), 0.25);
        *s += 1.0;
    });
    let mut posted = vec![0.0f64; n];
    backend.run_sweep(
        &mut v,
        &mut posted,
        |ctx, s: &mut f64, px: &mut f64| {
            ctx.charge_compute(ctx.rank(), 2.0);
            *px = *s * 0.125;
        },
        2,
        |_, j| j == 1,
        |ctx, _j| ring(ctx),
        |ctx, _j, s, posted| {
            ctx.charge_compute(ctx.rank(), 0.5);
            *s += posted.iter().sum::<f64>();
        },
    );
    let machine = backend.machine();
    let (e, t) = (machine.elapsed(), machine.stats().grand_totals());
    RegionsObservation {
        values: v.iter().map(|x| x.to_bits()).collect(),
        clock_bits: (0..n)
            .map(|p| {
                (
                    e.compute[p].to_bits(),
                    e.comm[p].to_bits(),
                    e.idle[p].to_bits(),
                )
            })
            .collect(),
        traffic: (t.messages, t.bytes, t.phases, t.comm_seconds.to_bits()),
        epoch: machine.epoch(),
    }
}

/// `degrade()` turns the pool into the sequential oracle for every region
/// that follows: a pool degraded before the run agrees bit for bit with
/// `Machine` and with the live pool through all three entry points.
#[test]
fn degraded_pool_is_exact_through_every_entry_point() {
    let cfg = || MachineConfig::ipsc860(8);
    let want = drive_every_entry_point(&mut Machine::new(cfg()));
    let mut live = PooledBackend::from_config_with_workers(cfg(), 3);
    assert_eq!(drive_every_entry_point(&mut live), want, "live pool");
    let mut degraded = PooledBackend::from_config_with_workers(cfg(), 3);
    assert!(degraded.degrade(), "the pool can always degrade");
    assert_eq!(
        drive_every_entry_point(&mut degraded),
        want,
        "degraded pool"
    );
    assert_eq!(want.epoch, 3, "one epoch per region");
}

/// Everything one coupler-driven partitioning run observes on an engine.
#[derive(Debug, PartialEq)]
struct PartitionObservation {
    owners: Vec<u32>,
    clock_bits: Vec<(u64, u64, u64)>,
    messages: usize,
    bytes: usize,
    comm_seconds_bits: u64,
}

/// Run `SET ... BY PARTITIONING` through the mapper coupler on any engine
/// and snapshot the partitioning plus the machine state.
fn run_partition<B: Backend>(
    backend: &mut B,
    partitioner: &dyn Partitioner,
    geocol: &GeoCoL,
) -> PartitionObservation {
    let outcome = chaos_repro::runtime::MapperCoupler.partition(backend, partitioner, geocol);
    let machine = backend.machine();
    let elapsed = machine.elapsed();
    let totals = machine.stats().grand_totals();
    PartitionObservation {
        owners: outcome.partitioning.owners().to_vec(),
        clock_bits: (0..machine.nprocs())
            .map(|p| {
                (
                    elapsed.compute[p].to_bits(),
                    elapsed.comm[p].to_bits(),
                    elapsed.idle[p].to_bits(),
                )
            })
            .collect(),
        messages: totals.messages,
        bytes: totals.bytes,
        comm_seconds_bits: totals.comm_seconds.to_bits(),
    }
}

/// A random GeoCoL with geometry, loads and (possibly disconnected)
/// connectivity, driven by one LCG seed.
fn random_geocol(n: usize, seed: u64, components: usize) -> GeoCoL {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let xs: Vec<f64> = (0..n).map(|_| next() * 50.0).collect();
    let ys: Vec<f64> = (0..n).map(|_| next() * 20.0).collect();
    let ws: Vec<f64> = (0..n).map(|_| 0.25 + next()).collect();
    // A chain per component (keeps every component connected internally,
    // never across), plus random intra-component chords.
    let comp = |v: usize| v * components / n;
    let mut e1 = Vec::new();
    let mut e2 = Vec::new();
    for v in 0..n.saturating_sub(1) {
        if comp(v) == comp(v + 1) {
            e1.push(v as u32);
            e2.push((v + 1) as u32);
        }
    }
    for _ in 0..2 * n {
        let a = (next() * n as f64) as usize % n;
        let b = (next() * n as f64) as usize % n;
        if a != b && comp(a) == comp(b) {
            e1.push(a as u32);
            e2.push(b as u32);
        }
    }
    GeoColBuilder::new(n)
        .geometry(vec![xs, ys])
        .load(ws)
        .link(e1, e2)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: the rank-parallel partitioners (RSB's Lanczos matvecs
    /// and reductions, RCB's extent/histogram scans) agree across
    /// both engines — partitionings, modeled clocks and statistics, bit
    /// for bit — and match the pure `partition()` serial oracle, over
    /// random graphs including disconnected ones, with pool worker counts
    /// swept below, at and above the rank count.
    #[test]
    fn partitioners_agree_across_engines_and_match_the_serial_oracle(
        p in 2usize..=8,
        n in 24usize..150,
        seed in 0u64..1000,
        components in 1usize..4,
        which in 0usize..2,
    ) {
        let geocol = random_geocol(n, seed, components);
        let rsb = RsbPartitioner { max_steps: 40, ..Default::default() };
        let partitioner: &dyn Partitioner = if which == 0 { &rsb } else { &RcbPartitioner };
        let oracle: Partitioning = partitioner.partition(&geocol, p);

        let cfg = || MachineConfig::unit(p);
        let mut seq = Machine::new(cfg());
        let obs_seq = run_partition(&mut seq, partitioner, &geocol);
        prop_assert_eq!(&obs_seq.owners, oracle.owners(), "engine vs pure partition()");
        let workers = 1 + (seed as usize % 12); // ranks > workers and workers > ranks
        let mut pool = PooledBackend::from_config_with_workers(cfg(), workers);
        let obs_pool = run_partition(&mut pool, partitioner, &geocol);
        prop_assert_eq!(&obs_seq, &obs_pool, "workers={}", workers);
    }
}

/// The proptest above keeps `n` small for runtime, which means every
/// `block_scan` fits one `SCAN_BLOCK` and RCB stays on its sort path. Pin
/// one deterministic *large* case — above `SORT_CUTOFF`, misaligned with
/// the block size — so RCB's rank-parallel histogram select and the
/// multi-block partial compaction run on both engines in the test suite.
#[test]
fn large_active_sets_agree_across_engines_and_match_the_serial_oracle() {
    use chaos_repro::geocol::{SCAN_BLOCK, SORT_CUTOFF};
    let n = 3 * SORT_CUTOFF + SCAN_BLOCK / 2 + 13;
    let geocol = random_geocol(n, 0xB16, 1);
    let rsb = RsbPartitioner {
        max_steps: 8,
        ..Default::default()
    };
    let partitioners: [&dyn Partitioner; 2] = [&RcbPartitioner, &rsb];
    for partitioner in partitioners {
        let oracle = partitioner.partition(&geocol, 4);
        let cfg = || MachineConfig::unit(4);
        let mut seq = Machine::new(cfg());
        let obs_seq = run_partition(&mut seq, partitioner, &geocol);
        assert_eq!(
            obs_seq.owners,
            oracle.owners(),
            "{} large-set engine vs pure partition()",
            partitioner.name()
        );
        for workers in [3, 4] {
            let mut pool = PooledBackend::from_config_with_workers(cfg(), workers);
            let obs_pool = run_partition(&mut pool, partitioner, &geocol);
            assert_eq!(
                obs_seq,
                obs_pool,
                "{} workers={workers}",
                partitioner.name()
            );
        }
    }
}

/// FNV-1a over the little-endian bytes of a word stream.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The recursive-bisection partitioners the golden hashes pin.
const BISECTIONS: [&str; 2] = ["RCB", "RSB"];

/// The golden-partition graphs: a mesh above `SORT_CUTOFF` (so RCB's
/// histogram select runs) and an MD box, each with unit loads and with
/// `PairLoopWorkload::loads`, labelled `"<workload> <unit|loads>"`.
fn golden_geocols() -> Vec<(String, GeoCoL)> {
    use chaos_bench::workload::{md_workload, mesh_workload};
    use chaos_workloads::{MdConfig, MeshConfig};
    let mut out = Vec::new();
    for (wname, w) in [
        ("mesh", mesh_workload(MeshConfig::tiny(6000))),
        ("md", md_workload(MdConfig::tiny(300))),
    ] {
        for weighted in [false, true] {
            let builder = GeoColBuilder::new(w.nnodes)
                .geometry(w.coords.to_vec())
                .link(w.e1.clone(), w.e2.clone());
            let (builder, loads) = if weighted {
                (builder.load(w.loads.clone()), "loads")
            } else {
                (builder, "unit")
            };
            out.push((format!("{wname} {loads}"), builder.build().unwrap()));
        }
    }
    out
}

/// Hash `hash(partitioner, geocol, p)` over the golden grid, one
/// `"<graph> <partitioner> P=<p> <hash>"` line per point, and compare
/// with the recorded lines, listing every point that moved.
fn assert_golden(
    nprocs: &[usize],
    hash: impl Fn(&dyn Partitioner, &GeoCoL, usize) -> u64,
    want: &[&str],
) {
    let mut got = Vec::new();
    for (graph, geocol) in golden_geocols() {
        for pname in BISECTIONS {
            let partitioner = chaos_repro::geocol::partitioner_by_name(pname).unwrap();
            for &p in nprocs {
                let h = hash(partitioner.as_ref(), &geocol, p);
                got.push(format!("{graph} {pname} P={p} {h:016x}"));
            }
        }
    }
    let moved: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("got {g}, recorded {w}"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == want.len(),
        "{} of {} partitionings moved:\n{}",
        moved.len(),
        want.len(),
        moved.join("\n")
    );
}

/// Every recursive-bisection partitioning against recorded values: the
/// owner array of RCB and RSB on the golden graphs at
/// P = 3, 4, 8 and 16. A change to a split rule, its sort order or its
/// weighted-median walk moves a hash.
#[test]
fn recursive_bisection_owner_arrays_match_their_recorded_hashes() {
    assert_golden(
        &[3, 4, 8, 16],
        |partitioner, geocol, p| {
            let owners = partitioner.partition(geocol, p);
            fnv1a(owners.owners().iter().map(|&o| o as u64))
        },
        GOLDEN_OWNERS,
    );
}

/// The same grid through `MapperCoupler::partition` on an iPSC/860 at the
/// power-of-two P it runs: the per-processor clock bits the partitioner
/// leaves behind, so a change to the charged scans or to the lump sum
/// they are deducted from moves a hash.
#[test]
fn recursive_bisection_coupler_clocks_match_their_recorded_hashes() {
    assert_golden(
        &[4, 8, 16],
        |partitioner, geocol, p| {
            let mut machine = Machine::new(MachineConfig::ipsc860(p));
            let obs = run_partition(&mut machine, partitioner, geocol);
            fnv1a(obs.clock_bits.iter().flat_map(|&(c, m, i)| [c, m, i]))
        },
        GOLDEN_CLOCKS,
    );
}

/// FNV-1a of each owner array. These are recorded values: one that moves
/// is a changed partitioning, to be justified before it is re-recorded.
/// The RSB lines here and in [`GOLDEN_CLOCKS`] were re-recorded when RSB's
/// Fiedler vector changed from a power iteration on `cI − L` that stopped
/// at its step cap to a converged two-pass Lanczos run: a different vector
/// orders the sets differently, and fewer, different scans charge the
/// clocks. They were re-recorded again when every set above 500 vertices
/// started its run from its coarsened hierarchy's Fiedler vector: another
/// vector within the tolerance orders some sets differently, and a run of
/// about 4 steps charges the clocks far less. No RCB line moved either
/// time.
const GOLDEN_OWNERS: &[&str] = &[
    "mesh unit RCB P=3 0d9639180baa1d25",
    "mesh unit RCB P=4 8f36d7d53aee9845",
    "mesh unit RCB P=8 f3e5badf19d7a245",
    "mesh unit RCB P=16 8728fa63cc40dd65",
    "mesh unit RSB P=3 e560911d9dd9e805",
    "mesh unit RSB P=4 ccbb677b49e2dc25",
    "mesh unit RSB P=8 ca3cee1f9efaaec5",
    "mesh unit RSB P=16 945b64f2b4205e25",
    "mesh loads RCB P=3 6b60960ac1825ce4",
    "mesh loads RCB P=4 bc99a4355dff5c66",
    "mesh loads RCB P=8 5fc593ac0d08fbe2",
    "mesh loads RCB P=16 3560b7b983f1d72a",
    "mesh loads RSB P=3 6b3ebc35db832026",
    "mesh loads RSB P=4 44212c4f3b6ceee4",
    "mesh loads RSB P=8 c1fea01adace1e67",
    "mesh loads RSB P=16 18ce3760cfafdcc1",
    "md unit RCB P=3 76d3d521e307b445",
    "md unit RCB P=4 4edb50b8083eb525",
    "md unit RCB P=8 7b0f1c46a1e01825",
    "md unit RCB P=16 1c89feec536e9f85",
    "md unit RSB P=3 98cd5594f837a7e5",
    "md unit RSB P=4 ff0c40ba774f4bc5",
    "md unit RSB P=8 785cd45e3211a2c5",
    "md unit RSB P=16 a8b8b62f3136d8a5",
    "md loads RCB P=3 7606774e61f16085",
    "md loads RCB P=4 80e8662d9e65cdc6",
    "md loads RCB P=8 6322dc42ccf05aa3",
    "md loads RCB P=16 23b06c289155a488",
    "md loads RSB P=3 def2270ea77cc427",
    "md loads RSB P=4 4c2825c1c4a14307",
    "md loads RSB P=8 664820834cd71940",
    "md loads RSB P=16 bbb37e44b8bda9ee",
];

/// FNV-1a of each run's per-processor `(compute, comm, idle)` clock bits,
/// recorded with [`GOLDEN_OWNERS`].
const GOLDEN_CLOCKS: &[&str] = &[
    "mesh unit RCB P=4 dcbcfc0eb31b58de",
    "mesh unit RCB P=8 f5c487135c2563fd",
    "mesh unit RCB P=16 ede28d91ed566491",
    "mesh unit RSB P=4 24fe25759cc9f1b1",
    "mesh unit RSB P=8 e888eb7c19647865",
    "mesh unit RSB P=16 dcae9c4c446a66d4",
    "mesh loads RCB P=4 490071ebe729064b",
    "mesh loads RCB P=8 09c8d9d2d2f285b9",
    "mesh loads RCB P=16 e12629a136c9637f",
    "mesh loads RSB P=4 d6bb5a2d6d27e822",
    "mesh loads RSB P=8 26b40ec07a76f8b5",
    "mesh loads RSB P=16 847ff49d2941f07c",
    "md unit RCB P=4 7d2f31e7593f3e81",
    "md unit RCB P=8 aae69621c9b742b6",
    "md unit RCB P=16 5d6d6fd1a8963fa3",
    "md unit RSB P=4 4e605896d067846f",
    "md unit RSB P=8 b21072c9567f3cb8",
    "md unit RSB P=16 f060db093c6fa031",
    "md loads RCB P=4 7d2f31e7593f3e81",
    "md loads RCB P=8 aae69621c9b742b6",
    "md loads RCB P=16 5d6d6fd1a8963fa3",
    "md loads RSB P=4 79e42a860f6a32aa",
    "md loads RSB P=8 2c0c480b6110953b",
    "md loads RSB P=16 033b9fadc434c8cf",
];

/// The disconnected-graph edge case, pinned (the proptest also sweeps it):
/// RSB on a graph with no edges across components must stay exact on both
/// engines and cut nothing.
#[test]
fn disconnected_graph_partitioning_is_engine_independent() {
    use chaos_repro::geocol::PartitionQuality;
    let geocol = random_geocol(96, 0xD15C0, 3);
    let rsb = RsbPartitioner::default();
    let oracle = rsb.partition(&geocol, 4);
    let cfg = || MachineConfig::unit(4);
    let mut seq = Machine::new(cfg());
    let obs_seq = run_partition(&mut seq, &rsb, &geocol);
    assert_eq!(obs_seq.owners, oracle.owners());
    let mut pool = PooledBackend::from_config_with_workers(cfg(), 2);
    assert_eq!(obs_seq, run_partition(&mut pool, &rsb, &geocol));
    let q = PartitionQuality::evaluate(&geocol, &oracle);
    assert!(
        q.load_imbalance <= 1.5,
        "imbalance {} on the disconnected graph",
        q.load_imbalance
    );
}

/// The full mesh experiment end-to-end (partitioner, remap, inspector,
/// repeated executor sweeps with schedule reuse) agrees across both engines
/// on a 16-rank machine — the pool at its default lane count and with one
/// lane per rank.
#[test]
fn mesh_workload_experiment_is_engine_independent() {
    use chaos_bench::experiment::{ExperimentConfig, Method};
    use chaos_bench::handcoded::{run_handcoded, run_handcoded_on};
    use chaos_bench::workload::mesh_workload;
    use chaos_workloads::MeshConfig;

    let w = mesh_workload(MeshConfig::tiny(1500));
    let cfg = ExperimentConfig::paper(16, Method::Rcb).with_iterations(4);
    let seq = run_handcoded(&w, &cfg);
    let mut default_lanes = PooledBackend::from_config(MachineConfig::ipsc860(16));
    let pooled = run_handcoded_on(&mut default_lanes, &w, &cfg);
    let mut lane_per_rank = PooledBackend::from_config_with_workers(MachineConfig::ipsc860(16), 16);
    let pooled16 = run_handcoded_on(&mut lane_per_rank, &w, &cfg);
    for other in [&pooled, &pooled16] {
        assert_eq!(seq.total.to_bits(), other.total.to_bits());
        assert_eq!(seq.executor.to_bits(), other.executor.to_bits());
        assert_eq!(seq.inspector.to_bits(), other.inspector.to_bits());
        assert_eq!(seq.messages, other.messages);
        assert_eq!(seq.bytes, other.bytes);
    }
}

/// Three hand-coded pair sweeps over BLOCK (owner computes) on `backend`,
/// each fused ([`sweep`]) or, the oracle, phase per op (`gather_into` →
/// `run_compute` → `scatter_add`) around the same pair kernel. Returns `y`,
/// every rank's clocks and each phase kind's traffic as one row of bits,
/// the executor's traffic, and the epochs the sweeps took.
fn three_pair_sweeps<B: Backend>(
    backend: &mut B,
    w: &chaos_bench::PairLoopWorkload,
    fused: bool,
) -> (Vec<u64>, chaos_repro::dmsim::CommStats, u64) {
    use chaos_repro::runtime::{gather_into, resolve_local, resolve_local_mut, scatter_add};
    let p = backend.nprocs();
    let dist = Distribution::block(w.nnodes, p);
    let x = DistArray::from_global("x", dist.clone(), &w.input);
    let mut y = DistArray::from_global("y", dist.clone(), &vec![0.5; w.nnodes]);
    let mut pattern = AccessPattern::new(p);
    for (&a, &b) in w.e1.iter().zip(&w.e2) {
        pattern.refs[dist.locate(a as usize).0].extend([a, b]);
    }
    let inspect = chaos_repro::runtime::Inspector.localize(backend, &dist, &pattern);
    let pair_kernel =
        |ctx: &mut RankCtx<'_>, y_local: &mut [f64], ghosts: &[f64], contrib: &mut [f64]| {
            let q = ctx.rank();
            for refs in inspect.localized[q].chunks_exact(2) {
                let (r1, r2) = (refs[0], refs[1]);
                let (f1, f2) = (w.kernel)(
                    *resolve_local(r1, x.local(q), ghosts),
                    *resolve_local(r2, x.local(q), ghosts),
                );
                *resolve_local_mut(r1, y_local, contrib) += f1;
                *resolve_local_mut(r2, y_local, contrib) += f2;
            }
            ctx.charge_compute(
                q,
                (inspect.localized[q].len() / 2) as f64 * w.ops_per_iteration,
            );
        };
    let machine = backend.machine_mut();
    machine.set_phase_kind(Some(PhaseKind::Executor));
    let before = machine.epoch();
    let counts = &inspect.ghost_counts;
    let mut ghosts: Vec<Vec<f64>> = counts.iter().map(|&c| vec![0.0; c]).collect();
    let (mut contributions, mut areas) = (ghosts.clone(), SweepAreas::default());
    for _ in 0..3 {
        if fused {
            sweep(
                backend,
                &inspect.schedule,
                &x,
                &mut y,
                &mut areas,
                &[ScatterKind::Add],
                |ctx, y, area| pair_kernel(ctx, y, &area.ghosts, &mut area.contrib[0]),
            );
            continue;
        }
        gather_into(backend, "L", &inspect.schedule, &x, &mut ghosts);
        backend.run_compute(
            y.par_shards_mut().zip(&mut contributions),
            |ctx, (y_local, contrib): (&mut [f64], &mut Vec<f64>)| {
                contrib.fill(0.0);
                pair_kernel(ctx, y_local, &ghosts[ctx.rank()], contrib)
            },
        );
        scatter_add(backend, "L", &inspect.schedule, &mut y, &contributions);
    }
    let (m, e) = (backend.machine(), backend.machine().elapsed());
    let traffic = PhaseKind::ALL.map(|k| m.stats().totals_for(k));
    let counts = traffic.iter().flat_map(|t| [t.messages, t.bytes, t.phases]);
    let bits = (y.to_global().into_iter())
        .chain((0..p).flat_map(|q| [e.compute[q], e.comm[q], e.idle[q]]))
        .chain(traffic.iter().map(|t| t.comm_seconds))
        .map(f64::to_bits)
        .chain(counts.map(|n| n as u64))
        .collect();
    let executor = traffic[PhaseKind::Executor.index()];
    (bits, executor, m.epoch() - before)
}

/// Fusing the hand-coded sweep changes no charge: on `Machine` and a 2-lane
/// pool, the fused sweep leaves the phase-per-op sweep's `y`, clock bits and
/// traffic, in one epoch per sweep against three — also with no ghosts
/// (self-pairs), where its always-active scatter stage closes the phase.
#[test]
fn the_fused_sweep_charges_what_the_phase_per_op_sweep_charged() {
    let mesh = chaos_bench::workload::mesh_workload(MeshConfig::tiny(600));
    let local = chaos_bench::PairLoopWorkload {
        e2: mesh.e1.clone(),
        ..mesh.clone()
    };
    let cfg = || MachineConfig::ipsc860(4);
    for (w, has_ghosts) in [(&mesh, true), (&local, false)] {
        for workers in [0, 2] {
            let run = |fused| match workers {
                0 => three_pair_sweeps(&mut Machine::new(cfg()), w, fused),
                n => {
                    let mut pool = PooledBackend::from_config_with_workers(cfg(), n);
                    three_pair_sweeps(&mut pool, w, fused)
                }
            };
            let ((fused, executor, fused_epochs), (phased, _, phased_epochs)) =
                (run(true), run(false));
            assert_eq!((fused_epochs, phased_epochs), (3, 9), "workers: {workers}");
            // Messages exactly when there are ghosts, and a gather and a
            // scatter phase per sweep either way.
            assert_eq!((executor.messages > 0, executor.phases), (has_ghosts, 6));
            assert_eq!(fused, phased, "workers: {workers}, ghosts: {has_ghosts}");
        }
    }
}

// ---------------------------------------------------------------------------
// Randomized fault schedules through the language executor: recovery is
// bit-identical to a fault-free run on both engines.
// ---------------------------------------------------------------------------

mod randomized_faults {
    use super::*;
    use chaos_repro::dmsim::FaultPlan;
    use chaos_repro::lang::{CompiledProgram, RecoveryPolicy};
    use std::sync::Arc;
    use std::time::Duration;

    const SRC: &str = r#"
        REAL*8 x(nnode), y(nnode)
        INTEGER end_pt1(nedge), end_pt2(nedge)
        DYNAMIC, DECOMPOSITION reg(nnode), reg2(nedge)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN end_pt1, end_pt2 WITH reg2
        CALL READ_DATA(x, y, end_pt1, end_pt2)
        FORALL i = 1, nedge
          REDUCE(ADD, y(end_pt1(i)), EFLUX1(x(end_pt1(i)), x(end_pt2(i))))
          REDUCE(ADD, y(end_pt2(i)), EFLUX2(x(end_pt1(i)), x(end_pt2(i))))
        END FORALL
    "#;
    const NP: usize = 4;
    const SWEEPS: usize = 5;

    fn program() -> CompiledProgram {
        lower_program(parse_program(SRC).unwrap()).unwrap()
    }

    fn inputs() -> ProgramInputs {
        let (nnode, nedge) = (96usize, 384usize);
        let mut state = 0xBEEF_CAFEu64;
        let mut next = |m: usize| -> u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize % m) as u32 + 1
        };
        let mut e1 = Vec::with_capacity(nedge);
        let mut e2 = Vec::with_capacity(nedge);
        for _ in 0..nedge {
            let a = next(nnode);
            let mut b = next(nnode);
            if b == a {
                b = a % nnode as u32 + 1;
            }
            e1.push(a);
            e2.push(b);
        }
        ProgramInputs::new()
            .scalar("nnode", nnode)
            .scalar("nedge", nedge)
            .real(
                "x",
                (0..nnode).map(|i| (i as f64 * 0.7).cos() + 2.0).collect(),
            )
            .real("y", vec![0.0; nnode])
            .int("end_pt1", e1)
            .int("end_pt2", e2)
    }

    #[derive(Debug, PartialEq)]
    struct Obs {
        y: Vec<u64>,
        clocks: Vec<u64>,
        messages: usize,
        bytes: usize,
        phases: usize,
        comm: u64,
        report: chaos_repro::lang::ExecReport,
    }

    fn drive<B: Backend>(exec: &mut Executor<B>, cp: &CompiledProgram) -> Obs {
        exec.run(cp).unwrap();
        for _ in 0..SWEEPS {
            exec.execute_loop(cp, "L1").unwrap();
        }
        let e = exec.machine().elapsed();
        let s = exec.machine().stats().grand_totals();
        Obs {
            y: exec
                .real_global("y")
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect(),
            clocks: e.per_proc.iter().map(|v| v.to_bits()).collect(),
            messages: s.messages,
            bytes: s.bytes,
            phases: s.phases,
            comm: s.comm_seconds.to_bits(),
            report: exec.report().clone(),
        }
    }

    /// Epochs spanned by the executor sweeps (past the directive preamble),
    /// so randomized faults land where there is work to fail.
    fn sweep_epochs(cp: &CompiledProgram) -> std::ops::Range<u64> {
        let mut probe = Executor::new(MachineConfig::ipsc860(NP), inputs());
        probe.run(cp).unwrap();
        let start = probe.machine().epoch();
        for _ in 0..SWEEPS {
            probe.execute_loop(cp, "L1").unwrap();
        }
        start + 1..probe.machine().epoch() + 1
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Any seeded schedule of panics and stalls is
        /// recovered bit-identically — values, clock bits, statistics and
        /// the execution report — on both engines, the pool with ranks
        /// striped over 3 lanes and with one lane per rank.
        #[test]
        fn random_fault_schedules_recover_bit_identically(
            seed in 0u64..u64::MAX,
            count in 1usize..4,
        ) {
            let cp = program();
            let epochs = sweep_epochs(&cp);
            let plan = || {
                Arc::new(
                    FaultPlan::randomized(seed, count, epochs.clone(), NP)
                        .with_stall(Duration::from_millis(1)),
                )
            };
            // Worst case every fault lands on the same (epoch, rank) and
            // must be burned through one retry at a time.
            let policy = || RecoveryPolicy::RetryPhase {
                max_attempts: count as u32 + 1,
            };

            let mut clean = Executor::new(MachineConfig::ipsc860(NP), inputs())
                .with_recovery_policy(policy());
            let want = drive(&mut clean, &cp);

            let mut seq = Executor::new(MachineConfig::ipsc860(NP), inputs())
                .with_fault_plan(plan())
                .with_recovery_policy(policy());
            prop_assert_eq!(&drive(&mut seq, &cp), &want, "sequential engine");

            for workers in [3, NP] {
                let mut pool =
                    Executor::new_pooled_with_workers(MachineConfig::ipsc860(NP), workers, inputs())
                        .with_fault_plan(plan())
                        .with_recovery_policy(policy());
                prop_assert_eq!(&drive(&mut pool, &cp), &want, "pooled engine, {} lanes", workers);
            }
        }
    }
}
