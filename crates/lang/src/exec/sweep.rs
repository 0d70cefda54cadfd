//! The sweep seam: one gather → compute → scatter pass over a loop's
//! record, as two functions of explicitly split borrows — the engine, the
//! array table, the resident region values, the record: [`gather_ghosts`]
//! fills the region rows, then [`run_sweep`] computes and scatters.
//!
//! Everything is borrowed **in place**: ghost rows are gathered straight
//! into [`RegionValues::rows`] and lent to the ranks as `&[f64]`, written
//! shards are lent from the array table, and the record's sweep areas go to
//! the engine as they sit in the loop table — so a sweep that unwinds
//! leaves every array, row and record where it was. What the ranks read is
//! one shared [`SweepView`] over those borrows, indexed by rank number;
//! what they write is one flat table of written shards, cut into a row per
//! rank. Nothing is built per rank and nothing is allocated: the three
//! borrow tables a sweep lends through (the view's read-only array table,
//! the shard table, its row table) are [`SweepTables`] the executor parks
//! empty between sweeps and re-lends to each one, so a steady sweep makes
//! no allocation at all, which `tests/no_alloc_steady_state.rs` pins.

use super::state::{Inspected, LoopState, RegionValues};
#[cfg(any(test, feature = "oracle"))]
use super::KernelMode;
use super::SAVED_GATHER_LABEL;
#[cfg(any(test, feature = "oracle"))]
use crate::kernel::oracle;
use crate::kernel::{run_rank, ArrLoc, RankSweepArea, SweepView};
use crate::lower::LoopPlan;
use chaos_dmsim::Backend;
use chaos_runtime::{gather_inline, scatter_combine_rows, scatter_pack_kernel, DistArray, Landing};

/// The sweep's three borrow tables, parked empty between sweeps. A table
/// holds borrows of one sweep's arrays, so between sweeps it is kept at a
/// nominal `'static` and re-typed by [`relend`] on the way in and out; the
/// allocation stays, so a steady sweep allocates nothing. A sweep that
/// unwinds drops the tables it had taken, and the next sweep allocates them
/// again.
#[derive(Debug, Default)]
pub(super) struct SweepTables {
    read_only: Vec<&'static [Vec<f64>]>,
    shards: Vec<&'static mut [f64]>,
    rows: Vec<&'static mut [&'static mut [f64]]>,
}

/// Empty `table` and re-type it for borrows of another lifetime, keeping
/// its allocation: with nothing left to map, `collect` reuses the buffer
/// in place (element types of equal size and alignment).
fn relend<T, U>(mut table: Vec<T>) -> Vec<U> {
    table.clear();
    table
        .into_iter()
        .map(|_| unreachable!("the table is empty"))
        .collect()
}

/// The sweep's gather phase: one gather per bound ghost buffer, in the
/// bindings' deterministic order, driver-side and inside the sweep's
/// single epoch (via [`gather_inline`], before [`run_sweep`] opens its
/// region), landing directly in the `(distribution, array)` resident region
/// rows, so resident values persist across loops and sweeps.
pub(super) fn gather_ghosts<B: Backend>(
    backend: &mut B,
    real: &[DistArray<f64>],
    regions: &mut [RegionValues],
    rec: &Inspected,
) {
    // If every chunk this binding depends on still holds fresh values for
    // the array, only the binding's own difference is gathered (into its
    // chunk); otherwise the loop's full schedule is gathered through the
    // slot re-binding map, refreshing the binding's chunk.
    for (gb, &(arr, rv)) in rec.bindings.ghosts.iter().zip(&rec.ghost_sources) {
        let group = &rec.groups[gb.group as usize];
        let (result, rb) = (&group.result, &group.region);
        let (arr, rv) = (&real[arr], &mut regions[rv]);
        let (fetch, landing) = if rb.deps.iter().all(|&c| rv.fresh[c as usize]) {
            // Everything outside this binding's own chunk is resident
            // and fresh: fetch only the ghosts earlier loops didn't.
            (&rb.diff, Landing::Offset(&rb.base))
        } else {
            // A dependency chunk is stale: gather the loop's own full
            // schedule, scattered through the slot re-binding map.
            (&result.schedule, Landing::Mapped(&rb.slot_map))
        };
        let machine = backend.machine_mut();
        gather_inline(machine, fetch, arr, landing, rv.rows.iter_mut());
        let msgs = result.schedule.message_count() - fetch.message_count();
        let words = result.schedule.total_ghosts() - fetch.total_ghosts();
        if msgs > 0 || words > 0 {
            machine.note_schedule_savings(SAVED_GATHER_LABEL, msgs, words);
        }
        if let Some(chunk) = rb.chunk {
            rv.fresh[chunk as usize] = true;
        }
    }
}

/// The executor sweep over gathered ghost rows: run the body's bytecode
/// rank-parallel, then scatter the touched write buffers — in the
/// bindings' deterministic order, so both engines (and, in test builds,
/// the tree-walking oracle `mode` can select) agree byte-for-byte on
/// values, clocks and statistics.
///
/// The rest of the sweep is *one* [`Backend::run_sweep`] region: compute,
/// then the scatters as the region's pack/combine stages — one epoch, one
/// engine release.
pub(super) fn run_sweep<B: Backend>(
    backend: &mut B,
    real: &mut [DistArray<f64>],
    regions: &[RegionValues],
    plan: &LoopPlan,
    record: &mut LoopState,
    tables: &mut SweepTables,
    #[cfg(any(test, feature = "oracle"))] mode: KernelMode,
) {
    let LoopState { inspected, areas } = record;
    let (rec, bindings) = (&**inspected, &inspected.bindings);

    // Lend the ranks their operands: one pass over the array table hands
    // out the shards the record resolved — the read-only arrays shared,
    // through the view; the written ones mutably, into one flat table that
    // holds rank `p`'s shard of written array `w` at `p * nwritten + w`.
    let (nprocs, nwritten) = (backend.nprocs(), bindings.written.len());
    let mut view = SweepView {
        rec,
        regions,
        read_only: relend(std::mem::take(&mut tables.read_only)),
    };
    view.read_only.resize(bindings.read_only.len(), &[]);
    let mut shards: Vec<&mut [f64]> = relend(std::mem::take(&mut tables.shards));
    shards.resize_with(nprocs * nwritten, Default::default);
    for (arr, loc) in real.iter_mut().zip(&rec.array_locs) {
        match *loc {
            Some(ArrLoc::Written(w)) => {
                for (p, shard) in arr.par_shards_mut().enumerate() {
                    shards[p * nwritten + w as usize] = shard;
                }
            }
            Some(ArrLoc::ReadOnly(r)) => view.read_only[r as usize] = arr.locals(),
            None => {}
        }
    }
    let mut rows: Vec<&mut [&mut [f64]]> = relend(std::mem::take(&mut tables.rows));
    rows.extend(shards.chunks_mut(nwritten.max(1)));
    // A body that writes no array still runs on every rank.
    rows.resize_with(nprocs, Default::default);

    // One region for the rest of the sweep: compute plus every scatter's
    // pack/combine (touched write buffers only — untouched ones carry
    // nothing but identities), with one epoch and one release.
    backend.run_sweep(
        &mut rows,
        areas,
        |ctx, shards: &mut &mut [&mut [f64]], area: &mut RankSweepArea| {
            let rank = ctx.rank();
            #[cfg(any(test, feature = "oracle"))]
            if mode == KernelMode::Interpreted {
                oracle::run_rank_interpreted(plan, &view, rank, shards, area);
            } else {
                run_rank(&rec.kernel, &view, rank, shards, area);
            }
            #[cfg(not(any(test, feature = "oracle")))]
            run_rank(&rec.kernel, &view, rank, shards, area);
            ctx.charge_compute(rank, view.niters(rank) as f64 * plan.ops_per_iteration);
        },
        bindings.write_bufs.len(),
        |areas: &[RankSweepArea], j| areas.iter().any(|a| a.touched[j]),
        |ctx, j| {
            let binding = &bindings.write_bufs[j];
            scatter_pack_kernel(ctx, &rec.groups[binding.group as usize].result.schedule);
        },
        |ctx, j, shards: &mut &mut [&mut [f64]], areas: &[RankSweepArea]| {
            let binding = &bindings.write_bufs[j];
            scatter_combine_rows(
                ctx,
                &rec.groups[binding.group as usize].result.schedule,
                |p| areas[p].contrib[j].as_slice(),
                &mut shards[binding.written as usize][..],
                &|a, b| binding.kind.apply(a, b),
            );
        },
    );
    tables.rows = relend(rows);
    tables.shards = relend(shards);
    tables.read_only = relend(view.read_only);
}
