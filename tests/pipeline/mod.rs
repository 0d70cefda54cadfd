//! The randomized executor pipeline the engine-identity
//! (`backend_equivalence`) and observer-identity (`observer_identity`)
//! suites drive — localize, then one executor sweep — and the observation
//! of everything a run leaves behind. `proptest_invariants` draws its
//! reference patterns from [`build_pattern`] too.

// Each suite that includes this module uses part of it.
#![allow(dead_code)]

use chaos_repro::dmsim::Backend;
use chaos_repro::prelude::*;
use chaos_repro::runtime::{resolve_local, resolve_local_mut, Inspector, SweepArea};

/// What one run observes: everything that must match across engines and
/// observer sets.
#[derive(Debug, PartialEq)]
pub struct Observation {
    pub localized: Vec<Vec<u32>>,
    pub ghost_bits: Vec<Vec<u64>>,
    pub y_bits: Vec<u64>,
    pub clock_bits: Vec<(u64, u64, u64)>,
    /// Messages, bytes, phases and `comm_seconds` bits: the grand totals,
    /// then one row per [`PhaseKind`].
    pub totals: Vec<(usize, usize, usize, u64)>,
    pub epoch: u64,
}

/// Localize `pattern` over `dist`, then one executor sweep of `x = data`
/// into `y = 1`: each rank folds `2 * x` over its references into its `y`
/// shard and add contributions, and posts its ghost values for a second
/// reduction operator, max, over the same schedule — scatter-add, then
/// scatter-max.
pub fn run_pipeline<B: Backend>(
    backend: &mut B,
    dist: &Distribution,
    data: &[f64],
    pattern: &AccessPattern,
) -> Observation {
    let x = DistArray::from_global("x", dist.clone(), data);
    let result = Inspector.localize(backend, dist, pattern);
    let mut y = DistArray::from_global("y", dist.clone(), &vec![1.0; data.len()]);
    let mut areas = SweepAreas::default();
    sweep(
        backend,
        &result.schedule,
        &x,
        &mut y,
        &mut areas,
        &[ScatterKind::Add, ScatterKind::Max],
        |ctx, y_local, area| {
            let q = ctx.rank();
            let SweepArea { ghosts, contrib } = area;
            let (add, max) = contrib.split_at_mut(1);
            for &r in &result.localized[q] {
                let v = 2.0 * *resolve_local(r, x.local(q), ghosts);
                *resolve_local_mut(r, y_local, &mut add[0]) += v;
            }
            max[0].copy_from_slice(ghosts);
            ctx.charge_compute(q, result.localized[q].len() as f64);
        },
    );
    let machine = backend.machine();
    let (stats, e) = (machine.stats(), machine.elapsed());
    Observation {
        localized: result.localized,
        ghost_bits: (0..machine.nprocs())
            .map(|q| areas.area(q).ghosts.iter().map(|v| v.to_bits()).collect())
            .collect(),
        y_bits: y.to_global().iter().map(|v| v.to_bits()).collect(),
        clock_bits: (0..machine.nprocs())
            .map(|p| {
                (
                    e.compute[p].to_bits(),
                    e.comm[p].to_bits(),
                    e.idle[p].to_bits(),
                )
            })
            .collect(),
        totals: std::iter::once(stats.grand_totals())
            .chain(PhaseKind::ALL.iter().map(|&kind| stats.totals_for(kind)))
            .map(|t| (t.messages, t.bytes, t.phases, t.comm_seconds.to_bits()))
            .collect(),
        epoch: machine.epoch(),
    }
}

/// `refs_per_proc` pseudo-random references per rank into `0..n`, from
/// `seed` and a per-suite `salt`.
pub fn build_pattern(
    p: usize,
    n: usize,
    seed: u64,
    refs_per_proc: usize,
    salt: u64,
) -> AccessPattern {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(salt);
    let mut pattern = AccessPattern::new(p);
    for q in 0..p {
        for _ in 0..refs_per_proc {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            pattern.refs[q].push(((state >> 33) as usize % n) as u32);
        }
    }
    pattern
}
