//! Executor primitives: the communication that runs *every* loop iteration.
//!
//! PARTI's executor phase is two collective operations around the local
//! computation:
//!
//! * [`gather`] — prefetch the off-processor elements named by a
//!   [`CommSchedule`] into each processor's ghost buffer, and
//! * [`scatter_add`] / [`scatter_op`] — push ghost-buffer accumulations back
//!   to the owning processors and combine them into the owned elements
//!   (the paper's left-hand-side `REDUCE (ADD, ...)` loops).
//!
//! Both are **drivers** over rank-local kernels executed through a
//! [`Backend`]: a pack kernel that charges each rank's outgoing messages,
//! and an unpack/combine kernel that moves the actual data while touching
//! only its own rank's buffers (its ghost buffer for gather, its
//! [`DistArray`] shard — via [`DistArray::par_shards_mut`] — for scatter).
//! Handing the same kernels to the sequential [`Machine`] engine or to
//! `chaos_dmsim::PooledBackend` produces byte-identical array contents
//! *and* byte-identical modeled clocks/statistics; only the wall-clock time
//! changes.
//!
//! Kernels walk the schedule's flat CSR arenas (see [`crate::schedule`]):
//! every send is a pair of contiguous `&[u32]` slices, so the per-iteration
//! inner loop is a strided copy with no nested-`Vec` pointer chasing, and
//! the transfer is charged per message without materializing an exchange
//! plan. The `*_into` variants reuse caller-owned buffers and perform
//! **zero heap allocations** in steady state on the sequential engine
//! (verified by the counting-allocator integration test), which is what
//! makes an inspector schedule worth reusing.
//!
//! The local computation between gather and scatter belongs to the
//! application (see the workload crates): its kernels charge their flops
//! through their [`RankCtx`], so executor rows in the tables include both
//! communication and computation.

use crate::darray::DistArray;
use crate::schedule::CommSchedule;
use chaos_dmsim::{Backend, Machine, PhaseEnd, RankCtx};

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

/// Rank-local pack kernel of [`scatter_op`]: the executing rank, as an
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
/// [`scatter_op`] (rows in one rank-major matrix) and the fused sweep
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
/// into per-processor ghost buffers.
///
/// Returns `ghosts[p][slot]` aligned with the schedule's ghost slots for
/// processor `p`. Allocates the buffers; iteration loops that reuse a
/// schedule should allocate once and call [`gather_into`].
pub fn gather<B, T>(
    backend: &mut B,
    label: &str,
    schedule: &CommSchedule,
    array: &DistArray<T>,
) -> Vec<Vec<T>>
where
    B: Backend,
    T: Clone + Default + Send + Sync,
{
    let nprocs = backend.nprocs();
    check_schedule(nprocs, schedule);
    let mut ghosts: Vec<Vec<T>> = (0..nprocs)
        .map(|p| vec![T::default(); schedule.ghost_count(p)])
        .collect();
    gather_into(backend, label, schedule, array, &mut ghosts);
    ghosts
}

/// [`gather`] into caller-owned ghost buffers (`ghosts[p]` must have exactly
/// `schedule.ghost_count(p)` elements). Performs no heap allocation on the
/// sequential engine.
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
        PhaseEnd::Quiet,
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
        PhaseEnd::Quiet,
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

/// Scatter ghost-buffer contributions back to their owners, adding them into
/// the owned elements (`y(owner) += contribution`).
pub fn scatter_add<B: Backend>(
    backend: &mut B,
    label: &str,
    schedule: &CommSchedule,
    array: &mut DistArray<f64>,
    contributions: &[Vec<f64>],
) {
    scatter_op(backend, label, schedule, array, contributions, |acc, c| {
        *acc += c
    });
}

/// Scatter ghost-buffer contributions back to their owners combining with an
/// arbitrary reduction operator (`add`, `max`, `min`, ... — the paper allows
/// any associative reduction on the left-hand side). Performs no heap
/// allocation on the sequential engine.
///
/// Each owner combines in its schedule's send-list order, so the reduction
/// order — and therefore the floating-point result — is identical on every
/// backend.
pub fn scatter_op<B, T, F>(
    backend: &mut B,
    _label: &str,
    schedule: &CommSchedule,
    array: &mut DistArray<T>,
    contributions: &[Vec<T>],
    combine: F,
) where
    B: Backend,
    T: Clone + Send + Sync,
    F: Fn(&mut T, T) + Sync,
{
    let nprocs = backend.nprocs();
    check_ghost_buffers(
        nprocs,
        schedule,
        contributions,
        "contributions must have one ghost buffer per processor",
        "ghost contribution",
    );

    // Reverse traffic: each requester sends its ghost slots back to the
    // owner, which combines them into its local elements. With the CSR
    // layout the owner's shard and the requesters' contribution buffers are
    // disjoint borrows, so the combine is rank-local with no intermediate
    // update list. Pack charges and transfers first, then the phase barrier,
    // then the owner-side combine — the same charge order as the plan-based
    // scatter.
    backend.run_phase(
        PhaseEnd::Quiet,
        |ctx| scatter_pack_kernel(ctx, schedule),
        array.par_shards_mut(),
        |ctx, local: &mut [T]| {
            scatter_combine_rows(
                ctx,
                schedule,
                |p| contributions[p].as_slice(),
                local,
                &combine,
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
    use crate::inspector::{AccessPattern, Inspector};
    use chaos_dmsim::MachineConfig;

    /// Set up: x = [0,10,20,...,70] block-distributed over 2 procs; proc 0
    /// references globals [4, 5], proc 1 references [0].
    fn setup() -> (Machine, DistArray<f64>, crate::inspector::InspectorResult) {
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
        let r = Inspector.localize(&mut m, "L", &dist, &pattern);
        (m, x, r)
    }

    #[test]
    fn gather_fills_ghost_buffers() {
        let (mut m, x, r) = setup();
        let ghosts = gather(&mut m, "L", &r.schedule, &x);
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
        let _ = gather(&mut m, "L", &r.schedule, &x);
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
    fn scatter_op_supports_max() {
        let (mut m, _x, r) = setup();
        let mut y = DistArray::from_global("y", Distribution::block(8, 2), &[3.0; 8]);
        let contributions = vec![vec![10.0, 1.0], vec![2.0]];
        scatter_op(&mut m, "L", &r.schedule, &mut y, &contributions, |a, b| {
            *a = f64::max(*a, b)
        });
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
        let ghosts = gather(&mut m, "L", &r.schedule, &x);
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
        let ghosts_seq = gather(&mut seq, "L", &r.schedule, &x);
        let ghosts_pool = gather(&mut pool, "L", &r.schedule, &x);
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
        let _ = gather(&mut wrong, "L", &r.schedule, &x);
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
                .localize(&mut setup, "L", &dist, &AccessPattern { refs })
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
