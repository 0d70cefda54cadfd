//! Executor primitives: the communication that runs *every* loop iteration.
//!
//! PARTI's executor phase is two collective operations around the local
//! computation: a **gather** prefetches the off-processor elements named by
//! a [`CommSchedule`] into each processor's ghost buffer, and a **scatter**
//! pushes ghost-buffer accumulations back to the owning processors and
//! combines them into the owned elements (the paper's left-hand-side
//! `REDUCE (ADD, ...)` loops).
//!
//! Both are written once, as rank-local kernels: a pack kernel that charges
//! each rank's outgoing messages, and an unpack / combine kernel that moves
//! the data while touching only its own rank's buffers. An executor sweep
//! runs them as one region: [`gather_inline`] folds the gather into the
//! driver, ahead of the sweep, then [`Backend::run_sweep`] runs the compute
//! and each scatter's pack ([`scatter_pack_kernel`]) and combine
//! ([`scatter_combine_rows`]) — one epoch and one engine release per sweep.
//! The lang executor composes its multi-array sweeps from these pieces
//! itself; [`sweep`] is the same composition over one schedule with a Rust
//! closure kernel, the one hand-written programs (the hand-coded Table 2
//! driver, the examples, the tests) call. Handing the kernels to the
//! sequential [`Machine`] engine or to `chaos_dmsim::PooledBackend` produces
//! byte-identical array contents *and* byte-identical modeled clocks and
//! statistics; only the wall-clock time changes.
//!
//! Kernels walk the schedule's flat CSR arenas (see [`crate::schedule`]):
//! every send is a pair of contiguous `&[u32]` slices, so the per-iteration
//! inner loop is a strided copy with no nested-`Vec` pointer chasing, and
//! the transfer is charged per message without materializing an exchange
//! plan. With its [`SweepAreas`] kept across sweeps, a steady [`sweep`]
//! performs **zero heap allocations** (verified by the counting-allocator
//! integration test), which is what makes an inspector schedule worth
//! reusing.

use crate::darray::DistArray;
use crate::schedule::CommSchedule;
use chaos_dmsim::{Backend, Machine, RankCtx};

/// Entry check shared by every executor driver: the schedule must match the
/// machine size. The rank-local kernels re-check this cheaply via
/// `debug_assert!`.
#[inline]
fn check_schedule(nprocs: usize, schedule: &CommSchedule) {
    assert_eq!(schedule.nprocs(), nprocs, "schedule/machine size mismatch");
}

/// Entry check for per-processor ghost-shaped buffers (`buffers[p]` must
/// have exactly `schedule.ghost_count(p)` elements). `shape_msg` is the
/// whole-slice panic message, `noun` names the buffer kind in the per-rank
/// message — both are part of the public panic contract.
fn check_ghost_buffers<T>(
    nprocs: usize,
    schedule: &CommSchedule,
    buffers: &[Vec<T>],
    shape_msg: &str,
    noun: &str,
) {
    check_schedule(nprocs, schedule);
    assert_eq!(buffers.len(), nprocs, "{shape_msg}");
    for (p, buf) in buffers.iter().enumerate() {
        assert_eq!(
            buf.len(),
            schedule.ghost_count(p),
            "processor {p} {noun} length mismatch"
        );
    }
}

/// Rank-local pack kernel of [`gather_into`]: the executing rank, as an
/// *owner*, charges the packing and transfer of each of its send lists.
/// Charges only — the simulator moves no payload for a gather; the unpack
/// kernel reads the owners' shards directly.
fn gather_pack_kernel(ctx: &mut RankCtx<'_>, schedule: &CommSchedule) {
    debug_assert_eq!(ctx.nprocs(), schedule.nprocs());
    let owner = ctx.rank();
    for send in schedule.sends(owner) {
        let words = send.offsets.len();
        ctx.charge_memory(owner, words as f64);
        ctx.charge_p2p(owner, send.to as usize, words);
    }
}

/// Rank-local unpack kernel shared by every gather: the executing rank, as
/// a *requester*, copies each ghost slot from its owning shard (shared
/// reads) to position `place(slot)` of `ghost`, charging the unpacking per
/// contiguous owner run. In the canonical owner-sorted slot order (what the
/// inspector produces) that is exactly one charge per incoming message, so
/// modeled clocks agree with the plan-based gather bit-for-bit; a
/// hand-built schedule with unsorted ghost slots charges the same per-rank
/// totals in smaller pieces (values are unaffected). Walk and charges do
/// not depend on `place` — only the landing positions do.
fn gather_unpack_kernel<T: Clone>(
    ctx: &mut RankCtx<'_>,
    schedule: &CommSchedule,
    array: &DistArray<T>,
    ghost: &mut [T],
    place: impl Fn(usize) -> usize,
) {
    debug_assert_eq!(ctx.nprocs(), schedule.nprocs());
    let me = ctx.rank();
    let owners = schedule.ghost_owners(me);
    let srcs = schedule.ghost_src_offsets(me);
    let mut lo = 0;
    while lo < owners.len() {
        let owner = owners[lo];
        let mut hi = lo + 1;
        while hi < owners.len() && owners[hi] == owner {
            hi += 1;
        }
        ctx.charge_memory(me, (hi - lo) as f64);
        let local = array.local(owner as usize);
        for slot in lo..hi {
            ghost[place(slot)] = local[srcs[slot] as usize].clone();
        }
        lo = hi;
    }
}

/// Where [`gather_inline`] lands rank `p`'s ghost slot `i` inside the row
/// it is handed for that rank.
#[derive(Debug, Clone, Copy)]
pub enum Landing<'a> {
    /// `row[bases[p] + i]` — the incremental fetch: the schedule is the
    /// *difference* a later loop still needs and `bases[p]` is its chunk of
    /// the shared resident ghost region.
    Offset(&'a [u32]),
    /// `row[maps[p][i]]` — the full re-binding fetch: the schedule is the
    /// loop's *own* and `maps[p]` its binding into the region, so charges
    /// equal a [`gather_into`] of that schedule bit-for-bit.
    Mapped(&'a [Vec<u32>]),
}

/// Rank-local pack kernel of every scatter: the executing rank, as an
/// *owner*, charges each requester's packing and the reverse transfer of
/// its ghost contributions. Public so a fused-sweep driver can charge the
/// same pack stage inside `Backend::run_sweep` — call it only inside an
/// exchange phase's pack stage (it charges p2p).
pub fn scatter_pack_kernel(ctx: &mut RankCtx<'_>, schedule: &CommSchedule) {
    debug_assert_eq!(ctx.nprocs(), schedule.nprocs());
    let owner = ctx.rank();
    for send in schedule.sends(owner) {
        let requester = send.to as usize;
        let words = send.ghost_slots.len();
        ctx.charge_memory(requester, words as f64);
        ctx.charge_p2p(requester, owner, words);
    }
}

/// Rank-local combine of one scatter stage, reading each requester's
/// contribution row through `row_of` — the generalized form used by both
/// [`scatter_add`] (rows in one rank-major matrix) and the fused sweeps
/// (rows inside per-rank sweep areas). Charge order and combine order are
/// identical either way: the owner's schedule send-list order.
pub fn scatter_combine_rows<'a, T, F, G>(
    ctx: &mut RankCtx<'_>,
    schedule: &CommSchedule,
    row_of: G,
    local: &mut [T],
    combine: &F,
) where
    T: Clone + 'a,
    F: Fn(&mut T, T),
    G: Fn(usize) -> &'a [T],
{
    debug_assert_eq!(ctx.nprocs(), schedule.nprocs());
    let owner = ctx.rank();
    let mut updates = 0usize;
    for send in schedule.sends(owner) {
        let from = row_of(send.to as usize);
        updates += send.ghost_slots.len();
        for (&off, &slot) in send.offsets.iter().zip(send.ghost_slots) {
            combine(&mut local[off as usize], from[slot as usize].clone());
        }
    }
    ctx.charge_compute(owner, updates as f64);
}

/// Gather the off-processor elements described by `schedule` from `array`
/// into caller-owned ghost buffers (`ghosts[p]` holds exactly
/// `schedule.ghost_count(p)` elements) as one engine phase, allocating
/// nothing on the sequential engine. No program calls it, since a [`sweep`]
/// folds its gather into one region; it stays public, with its ignored
/// `_label`, only for the end-to-end benchmark's probes and as the tests'
/// oracle, until ROADMAP item 1B deletes it.
pub fn gather_into<B, T>(
    backend: &mut B,
    _label: &str,
    schedule: &CommSchedule,
    array: &DistArray<T>,
    ghosts: &mut [Vec<T>],
) where
    B: Backend,
    T: Clone + Send + Sync,
{
    let nprocs = backend.nprocs();
    check_ghost_buffers(
        nprocs,
        schedule,
        ghosts,
        "ghost buffers must match machine size",
        "ghost buffer",
    );

    // Packing on the owners plus the transfers, then the phase barrier,
    // then unpacking at the requesters — the same charge order as the
    // materialised gather of the naive reference (`tests/naive`), so
    // modeled clocks agree with it bit-for-bit.
    backend.run_phase(
        |ctx| gather_pack_kernel(ctx, schedule),
        ghosts.iter_mut(),
        |ctx, ghost: &mut Vec<T>| gather_unpack_kernel(ctx, schedule, array, ghost, |slot| slot),
    );
}

/// [`gather_into`] folded into an *enclosing* backend region: runs the same
/// pack/unpack kernels driver-side via
/// [`run_phase_inline`](chaos_dmsim::run_phase_inline), charging the exact
/// same sequence but advancing **no** epoch — the fused sweep uses this to
/// make gather → compute → scatter a single epoch. `rows` yields one row per
/// rank (so callers can hand out rows embedded in per-rank sweep areas) and
/// `landing` says where in its row each ghost slot lands; it is matched
/// once per rank, outside the copy loop. Charges are those of gathering
/// `schedule`, whatever the landing.
pub fn gather_inline<'g, T, I>(
    machine: &mut Machine,
    schedule: &CommSchedule,
    array: &DistArray<T>,
    landing: Landing<'_>,
    rows: I,
) where
    T: Clone + Send + Sync + 'g,
    I: IntoIterator<Item = &'g mut Vec<T>>,
{
    let nprocs = machine.nprocs();
    check_schedule(nprocs, schedule);
    match landing {
        Landing::Offset(bases) => {
            assert_eq!(bases.len(), nprocs, "bases must match machine size")
        }
        Landing::Mapped(maps) => {
            assert_eq!(maps.len(), nprocs, "slot maps must match machine size")
        }
    }
    chaos_dmsim::run_phase_inline(
        machine,
        |ctx| gather_pack_kernel(ctx, schedule),
        rows,
        |ctx, row: &mut Vec<T>| {
            let p = ctx.rank();
            let count = schedule.ghost_count(p);
            match landing {
                Landing::Offset(bases) => {
                    let base = bases[p] as usize;
                    assert!(
                        row.len() >= base + count,
                        "processor {p} region row too short for the gather ({} < {})",
                        row.len(),
                        base + count
                    );
                    gather_unpack_kernel(ctx, schedule, array, row, |slot| base + slot);
                }
                Landing::Mapped(maps) => {
                    let map = maps[p].as_slice();
                    assert_eq!(map.len(), count, "processor {p} slot map length mismatch");
                    gather_unpack_kernel(ctx, schedule, array, row, |slot| map[slot] as usize);
                }
            }
        },
    );
}

/// Scatter ghost-buffer contributions back to their owners as one engine
/// phase, adding them into the owned elements (`y(owner) += contribution`)
/// in each owner's send-list order. Public, and `_label` ignored, for the
/// same reasons as [`gather_into`].
pub fn scatter_add<B: Backend>(
    backend: &mut B,
    _label: &str,
    schedule: &CommSchedule,
    array: &mut DistArray<f64>,
    contributions: &[Vec<f64>],
) {
    let nprocs = backend.nprocs();
    check_ghost_buffers(
        nprocs,
        schedule,
        contributions,
        "contributions must have one ghost buffer per processor",
        "ghost contribution",
    );
    // Reverse traffic: pack charges and transfers first, then the phase
    // barrier, then the owner-side combine.
    backend.run_phase(
        |ctx| scatter_pack_kernel(ctx, schedule),
        array.par_shards_mut(),
        |ctx, local: &mut [f64]| {
            scatter_combine_rows(
                ctx,
                schedule,
                |p| contributions[p].as_slice(),
                local,
                &|acc, c| *acc += c,
            )
        },
    );
}

/// One rank's area of a [`sweep`]: the ghost values gathered for it and its
/// contributions to other ranks' elements, one row per scatter stage.
#[derive(Debug, Clone, Default)]
pub struct SweepArea {
    /// The gathered array's ghost values, one per ghost slot.
    pub ghosts: Vec<f64>,
    /// Per scatter stage, one contribution per ghost slot, reset to the
    /// stage's [`ScatterKind::identity`] before the kernel runs.
    pub contrib: Vec<Vec<f64>>,
}

/// The per-rank [`SweepArea`]s [`sweep`] runs in, kept by the caller across
/// sweeps: once they have grown to the schedule, a sweep allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SweepAreas {
    areas: Vec<SweepArea>,
    /// Zero `Landing::Offset` bases: ghosts land at the start of each row.
    bases: Vec<u32>,
}

impl SweepAreas {
    /// Rank `p`'s area as the last sweep left it.
    pub fn area(&self, p: usize) -> &SweepArea {
        &self.areas[p]
    }
}

/// One executor sweep over `schedule`, as the compiled program runs one:
/// gather `x`'s ghosts ([`gather_inline`]), then one [`Backend::run_sweep`]
/// region — `kernel` on every rank, then a scatter stage per entry of
/// `scatters` — one epoch and one engine release.
///
/// `kernel(ctx, y_local, area)` finds `x`'s ghosts in `area.ghosts` and
/// `area.contrib[j]` at `scatters[j]`'s identity; it updates owned `y`
/// elements in place and off-processor ones in the contributions
/// ([`resolve_local_mut`](crate::resolve_local_mut)), and charges its own
/// compute. Every stage runs, with or without contributions, so by
/// [`Backend::run_sweep`]'s contract the charges are those of
/// [`gather_into`], `run_compute` and one [`scatter_add`] per stage, event
/// for event; only the epoch count differs.
pub fn sweep<B, K>(
    backend: &mut B,
    schedule: &CommSchedule,
    x: &DistArray<f64>,
    y: &mut DistArray<f64>,
    areas: &mut SweepAreas,
    scatters: &[ScatterKind],
    kernel: K,
) where
    B: Backend,
    K: Fn(&mut RankCtx<'_>, &mut [f64], &mut SweepArea) + Sync,
{
    let nprocs = backend.nprocs();
    check_schedule(nprocs, schedule);
    areas.bases.resize(nprocs, 0);
    areas.areas.resize_with(nprocs, SweepArea::default);
    for (p, area) in areas.areas.iter_mut().enumerate() {
        area.ghosts.resize(schedule.ghost_count(p), 0.0);
        area.contrib.resize_with(scatters.len(), Vec::new);
    }
    gather_inline(
        backend.machine_mut(),
        schedule,
        x,
        Landing::Offset(&areas.bases),
        areas.areas.iter_mut().map(|area| &mut area.ghosts),
    );
    backend.run_sweep(
        y.shards_mut(),
        &mut areas.areas,
        |ctx, y_local: &mut Vec<f64>, area: &mut SweepArea| {
            let count = area.ghosts.len();
            for (row, kind) in area.contrib.iter_mut().zip(scatters) {
                row.clear();
                row.resize(count, kind.identity());
            }
            kernel(ctx, y_local, area);
        },
        scatters.len(),
        |_, _| true,
        |ctx, _| scatter_pack_kernel(ctx, schedule),
        |ctx, j, y_local: &mut Vec<f64>, areas: &[SweepArea]| {
            let kind = scatters[j];
            scatter_combine_rows(
                ctx,
                schedule,
                |p| areas[p].contrib[j].as_slice(),
                y_local,
                &|c, v| kind.apply(c, v),
            )
        },
    );
}

/// The reduction a scatter applies at the owners, as a value rather than a
/// closure — the form a compiled kernel's write-buffer bindings carry, so a
/// VM-driven executor can dispatch the scatter without re-deriving an
/// operator per sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScatterKind {
    /// `owner += contribution`.
    Add,
    /// `owner = max(owner, contribution)`.
    Max,
    /// `owner = min(owner, contribution)`.
    Min,
    /// `owner = contribution` unless the contribution is the NaN identity
    /// (last-writer-wins assignment of off-processor stores).
    Store,
}

impl ScatterKind {
    /// The identity element ghost write-buffers are initialized with: slots
    /// never written contribute nothing under this kind's combine.
    #[inline]
    pub fn identity(self) -> f64 {
        match self {
            ScatterKind::Add => 0.0,
            ScatterKind::Max => f64::NEG_INFINITY,
            ScatterKind::Min => f64::INFINITY,
            ScatterKind::Store => f64::NAN,
        }
    }

    /// Apply the combine to an owned cell.
    #[inline]
    pub fn apply(self, cell: &mut f64, v: f64) {
        match self {
            ScatterKind::Add => *cell += v,
            ScatterKind::Max => *cell = cell.max(v),
            ScatterKind::Min => *cell = cell.min(v),
            ScatterKind::Store => {
                if !v.is_nan() {
                    *cell = v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::inspector::{AccessPattern, Inspector, InspectorResult};
    use chaos_dmsim::MachineConfig;

    /// Set up: x = [0,10,20,...,70] block-distributed over 2 procs; proc 0
    /// references globals [4, 5], proc 1 references [0].
    fn setup() -> (Machine, DistArray<f64>, InspectorResult) {
        let mut m = Machine::new(MachineConfig::unit(2));
        let dist = Distribution::block(8, 2);
        let x = DistArray::from_global(
            "x",
            dist.clone(),
            &(0..8).map(|i| (i * 10) as f64).collect::<Vec<_>>(),
        );
        let pattern = AccessPattern {
            refs: vec![vec![4, 5], vec![0]],
        };
        let r = Inspector.localize(&mut m, &dist, &pattern);
        (m, x, r)
    }

    /// [`gather_into`] fresh ghost buffers shaped by `r`.
    fn gathered(m: &mut impl Backend, r: &InspectorResult, x: &DistArray<f64>) -> Vec<Vec<f64>> {
        let mut ghosts: Vec<Vec<f64>> = r.ghost_counts.iter().map(|&c| vec![0.0; c]).collect();
        gather_into(m, "L", &r.schedule, x, &mut ghosts);
        ghosts
    }

    #[test]
    fn gather_fills_ghost_buffers() {
        let (mut m, x, r) = setup();
        let ghosts = gathered(&mut m, &r, &x);
        // Proc 0's ghosts are globals 4 and 5 (owner-local offsets 0 and 1).
        assert_eq!(ghosts[0], vec![40.0, 50.0]);
        // Proc 1's ghost is global 0.
        assert_eq!(ghosts[1], vec![0.0]);
        // The localized refs resolve to the right values.
        let v: Vec<f64> = r.localized[0]
            .iter()
            .map(|&idx| *crate::resolve_local(idx, x.local(0), &ghosts[0]))
            .collect();
        assert_eq!(v, vec![40.0, 50.0]);
    }

    #[test]
    fn gather_into_reuses_buffers() {
        let (mut m, x, r) = setup();
        let mut ghosts: Vec<Vec<f64>> = (0..2)
            .map(|p| vec![0.0; r.schedule.ghost_count(p)])
            .collect();
        gather_into(&mut m, "L", &r.schedule, &x, &mut ghosts);
        assert_eq!(ghosts[0], vec![40.0, 50.0]);
        assert_eq!(ghosts[1], vec![0.0]);
        // Second gather overwrites in place.
        ghosts[0][0] = -1.0;
        gather_into(&mut m, "L", &r.schedule, &x, &mut ghosts);
        assert_eq!(ghosts[0], vec![40.0, 50.0]);
    }

    #[test]
    fn gather_charges_messages() {
        let (mut m, x, r) = setup();
        let before = m.stats().grand_totals().messages;
        let _ = gathered(&mut m, &r, &x);
        assert_eq!(m.stats().grand_totals().messages - before, 2);
    }

    #[test]
    fn scatter_add_accumulates_at_owners() {
        let (mut m, _x, r) = setup();
        let mut y = DistArray::from_global("y", Distribution::block(8, 2), &[1.0; 8]);
        // Proc 0 contributes 5.0 to each of its ghost slots (globals 4, 5);
        // proc 1 contributes 7.0 to its ghost (global 0).
        let contributions = vec![vec![5.0, 5.0], vec![7.0]];
        scatter_add(&mut m, "L", &r.schedule, &mut y, &contributions);
        let g = y.to_global();
        assert_eq!(g[0], 8.0);
        assert_eq!(g[4], 6.0);
        assert_eq!(g[5], 6.0);
        assert_eq!(g[1], 1.0, "untouched elements keep their value");
    }

    #[test]
    fn sweep_scatter_stage_supports_max() {
        let (mut m, x, r) = setup();
        let mut y = DistArray::from_global("y", Distribution::block(8, 2), &[3.0; 8]);
        let posted = [vec![10.0, 1.0], vec![2.0]];
        let mut areas = SweepAreas::default();
        let max = [ScatterKind::Max];
        sweep(
            &mut m,
            &r.schedule,
            &x,
            &mut y,
            &mut areas,
            &max,
            |ctx, _, area| area.contrib[0].copy_from_slice(&posted[ctx.rank()]),
        );
        let g = y.to_global();
        assert_eq!(g[4], 10.0);
        assert_eq!(g[5], 3.0);
        assert_eq!(g[0], 3.0);
    }

    #[test]
    fn gather_scatter_roundtrip_conserves_sum() {
        // Property: scatter_add of gathered values doubles exactly the
        // referenced elements.
        let (mut m, x, r) = setup();
        let ghosts = gathered(&mut m, &r, &x);
        let mut y = x.clone();
        scatter_add(&mut m, "L", &r.schedule, &mut y, &ghosts);
        let xg = x.to_global();
        let yg = y.to_global();
        for g in 0..8 {
            let referenced_off_proc = [0usize, 4, 5].contains(&g);
            if referenced_off_proc {
                assert_eq!(yg[g], 2.0 * xg[g]);
            } else {
                assert_eq!(yg[g], xg[g]);
            }
        }
    }

    #[test]
    fn gather_and_scatter_agree_across_backends() {
        use chaos_dmsim::PooledBackend;
        let (_, x, r) = setup();
        let mut seq = Machine::new(MachineConfig::unit(2));
        let mut pool = PooledBackend::from_config_with_workers(MachineConfig::unit(2), 2);
        let ghosts_seq = gathered(&mut seq, &r, &x);
        let ghosts_pool = gathered(&mut pool, &r, &x);
        assert_eq!(ghosts_seq, ghosts_pool);
        let mut y_seq = x.clone();
        let mut y_pool = x.clone();
        scatter_add(&mut seq, "L", &r.schedule, &mut y_seq, &ghosts_seq);
        scatter_add(&mut pool, "L", &r.schedule, &mut y_pool, &ghosts_pool);
        assert_eq!(y_seq.to_global(), y_pool.to_global());
        assert_eq!(seq.elapsed(), pool.machine().elapsed());
        assert_eq!(
            seq.stats().grand_totals(),
            pool.machine().stats().grand_totals()
        );
    }

    #[test]
    #[should_panic(expected = "ghost contribution length mismatch")]
    fn scatter_rejects_wrong_ghost_shape() {
        let (mut m, _x, r) = setup();
        let mut y = DistArray::from_global("y", Distribution::block(8, 2), &[0.0; 8]);
        scatter_add(&mut m, "L", &r.schedule, &mut y, &[vec![1.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "ghost buffer length mismatch")]
    fn gather_into_rejects_wrong_buffer_shape() {
        let (mut m, x, r) = setup();
        let mut ghosts = vec![vec![0.0; 9], vec![0.0; 9]];
        gather_into(&mut m, "L", &r.schedule, &x, &mut ghosts);
    }

    #[test]
    #[should_panic(expected = "schedule/machine size mismatch")]
    fn gather_rejects_mismatched_machine() {
        let (_, x, r) = setup();
        let mut wrong = Machine::new(MachineConfig::unit(4));
        let _ = gathered(&mut wrong, &r, &x);
    }

    /// One test over the two landings of [`gather_inline`], each against
    /// an engine-phase [`gather_into`] on a twin machine.
    #[test]
    fn gather_inline_lands_by_descriptor_and_charges_like_gather_into() {
        let dist = Distribution::block(8, 2);
        let x = DistArray::from_global(
            "x",
            dist.clone(),
            &(0..8).map(|i| (i * 10) as f64).collect::<Vec<_>>(),
        );
        // Loop A references globals [4, 5] on proc 0 and [0] on proc 1;
        // loop B references [5, 6] and [0] — only global 6 is new.
        let mut setup = Machine::new(MachineConfig::unit(2));
        let mut localize = |refs: Vec<Vec<u32>>| {
            Inspector
                .localize(&mut setup, &dist, &AccessPattern { refs })
                .schedule
        };
        let a = localize(vec![vec![4, 5], vec![0]]);
        let b = localize(vec![vec![5, 6], vec![0]]);
        let diff = b.difference(&a);
        assert_eq!(diff.total_ghosts(), 1);
        let (region, map) = a.merge_incremental(&b);
        let bases: Vec<u32> = (0..2).map(|p| a.ghost_count(p) as u32).collect();
        let buffers = |s: &CommSchedule| -> Vec<Vec<f64>> {
            (0..2).map(|p| vec![-1.0; s.ghost_count(p)]).collect()
        };
        // The resident region after loop A's gather: A's slots filled, the
        // appended tail untouched.
        let mut resident = buffers(&region);
        gather_inline(
            &mut Machine::new(MachineConfig::unit(2)),
            &a,
            &x,
            Landing::Offset(&[0, 0]),
            resident.iter_mut(),
        );

        // (landing, schedule gathered, rows before the gather)
        let cases = [
            (Landing::Offset(&bases), &diff, resident.clone()),
            (Landing::Mapped(&map), &b, buffers(&region)),
        ];
        for (landing, schedule, mut rows) in cases {
            let mut engine = Machine::new(MachineConfig::unit(2));
            let mut inline = Machine::new(MachineConfig::unit(2));
            let mut reference = buffers(schedule);
            gather_into(&mut engine, "L", schedule, &x, &mut reference);
            gather_inline(&mut inline, schedule, &x, landing, rows.iter_mut());
            // Same charges as the engine phase, bit for bit, but no epoch.
            assert_eq!(engine.elapsed(), inline.elapsed(), "{landing:?}");
            assert_eq!(
                engine.stats().grand_totals(),
                inline.stats().grand_totals(),
                "{landing:?}"
            );
            assert_eq!((engine.epoch(), inline.epoch()), (1, 0), "{landing:?}");
            match landing {
                // The difference lands at the chunk base, and loop B reads
                // all of its values through the re-binding map.
                Landing::Offset(_) => {
                    assert_eq!(engine.stats().grand_totals().messages, 1);
                    assert_eq!(b.message_count(), 2);
                    for p in 0..2 {
                        let base = bases[p] as usize;
                        assert_eq!(rows[p][..base], resident[p][..base], "A's slots kept");
                        assert_eq!(rows[p][base..], reference[p][..]);
                        for (slot, (o, s)) in b.ghost_sources(p).enumerate() {
                            let expected = x.local(o as usize)[s as usize];
                            assert_eq!(rows[p][map[p][slot] as usize], expected);
                        }
                    }
                }
                // Slot i lands at map[i]; region slots B does not bind stay.
                Landing::Mapped(_) => {
                    for p in 0..2 {
                        for (slot, &v) in reference[p].iter().enumerate() {
                            assert_eq!(rows[p][map[p][slot] as usize], v);
                        }
                    }
                    assert_eq!(rows[0][0], -1.0, "global 4 is not B's to fetch");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "region row too short")]
    fn offset_gather_rejects_short_region_rows() {
        let (mut m, x, r) = setup();
        let mut rows = [vec![0.0; 1], vec![0.0; 1]];
        gather_inline(
            &mut m,
            &r.schedule,
            &x,
            Landing::Offset(&[1, 1]),
            rows.iter_mut(),
        );
    }
}
