//! The lane discipline, in one place: every cell that threads write
//! without a lock — the pool's charge arenas, per-rank slots and descriptor
//! slot, the observers' trace rings and metrics shards — and the only module
//! of the workspace that says `unsafe`.
//!
//! The pool's bit-identity with the sequential [`Machine`](crate::Machine)
//! rests on one rule: **one writer per cell per phase**. [`Cells`] carries
//! it: [`Cells::with`] claims a cell and lends `&mut T` for the closure's
//! duration; [`Cells::frozen`] lends the whole slice shared, only to a lane
//! holding the pool's [`StageCrossed`] proof. Debug builds keep one in-use
//! flag per cell ([`Claims`], allocated with the pool or the sink) and panic
//! on a second claim, or on a shared read overlapping a claim, before the
//! cell is touched; release builds keep no flag, so claiming is safe to call
//! but sound only under the rule, which the pool keeps by construction
//! (static striping, crossings) — hence every type here is crate-private. A
//! [`Cells`] borrowed from a `&'a mut [T]` cannot outlive it. [`LaneCells`]
//! is the owned form the observers keep; [`JobSlot`] lends the pool's phase
//! descriptor.

use crate::pool::StageCrossed;
use crate::probe::Lane;
use std::cell::UnsafeCell;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// One cell: a `T` that is lent out, never locked.
#[repr(transparent)]
struct Slot<T>(UnsafeCell<T>);

// SAFETY: a slot is reached through a shared reference only under the lane
// discipline: one claimant at a time, which hands `&mut T` from thread to
// thread (`T: Send`), and shared reads only while no claim is open, which
// additionally need `T: Sync` (the bound on `Cells::read`).
unsafe impl<T: Send> Sync for Slot<T> {}

/// One in-use flag per cell, in debug builds; zero-sized in release.
pub(crate) struct Claims {
    #[cfg(debug_assertions)]
    held: Box<[AtomicBool]>,
}

impl Claims {
    /// Flags for `cells` cells, all free.
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    pub(crate) fn new(cells: usize) -> Self {
        Claims {
            #[cfg(debug_assertions)]
            held: (0..cells).map(|_| AtomicBool::new(false)).collect(),
        }
    }
}

/// An open claim on one cell; closing it (the drop, also on unwind) frees
/// the cell.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
struct Claim<'a>(&'a Claims, usize);

#[cfg(debug_assertions)]
impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.held[self.1].store(false, Ordering::Release);
    }
}

/// The disjoint-claim primitive: a slice lent out cell by cell for `'a`.
pub(crate) struct Cells<'a, T> {
    slots: &'a [Slot<T>],
    claims: &'a Claims,
}

impl<'a, T> Cells<'a, T> {
    /// Lend `slice` cell by cell for as long as it is borrowed; `claims`
    /// has a flag for every cell.
    pub(crate) fn new(slice: &'a mut [T], claims: &'a Claims) -> Self {
        #[cfg(debug_assertions)]
        assert!(
            slice.len() <= claims.held.len(),
            "fewer claim flags than cells"
        );
        // SAFETY: `Slot<T>` is a transparent `UnsafeCell<T>`, which has the
        // layout of `T`; the slice is borrowed exclusively for `'a`.
        let slots = unsafe { &*(slice as *mut [T] as *const [Slot<T>]) };
        Cells { slots, claims }
    }

    /// Run `f` on cell `i` as its one writer. Panics if `i` is out of range
    /// or, in debug builds, if the cell is claimed already, before `f` runs.
    #[inline]
    pub(crate) fn with<R>(&self, i: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let slot = &self.slots[i];
        #[cfg(debug_assertions)]
        assert!(
            !self.claims.held[i].swap(true, Ordering::Acquire),
            "cell {i} has two writers at once (lane discipline broken)"
        );
        let _claim = Claim(self.claims, i);
        // SAFETY: under the lane discipline (checked by the claim in debug
        // builds) this thread is the cell's only accessor until `f` returns.
        f(unsafe { &mut *slot.0.get() })
    }

    /// Every cell, shared, for a lane past the stage crossing: every lane's
    /// claims closed before it arrived, and none reopens this region.
    #[inline]
    pub(crate) fn frozen(&self, _crossed: &StageCrossed) -> &[T]
    where
        T: Sync,
    {
        self.read()
    }

    /// Every cell, shared; panics in debug builds if a claim is open.
    fn read(&self) -> &'a [T]
    where
        T: Sync,
    {
        #[cfg(debug_assertions)]
        if let Some(i) = self
            .claims
            .held
            .iter()
            .position(|f| f.load(Ordering::Acquire))
        {
            panic!("cell {i} read while a lane is writing it (lane discipline broken)");
        }
        // SAFETY: transparent layout as in `new`; no claim is open (checked
        // in debug builds), and by the lane discipline none opens while the
        // slice is read.
        unsafe { &*(self.slots as *const [Slot<T>] as *const [T]) }
    }
}

/// One cell per worker lane plus a last one for the driver: the trace rings
/// and the metrics shards. Worker lane `w` writes cell `w` only between the
/// pool's release and completion crossings; the driver writes the last cell
/// only outside them (every driver-side hook is reached through
/// `&mut Machine`); read-out runs while no phase is in flight, the only
/// time user code can hold an observer. A write to a lane with no cell is
/// counted in [`LaneCells::lost`], never folded into another lane's cell.
pub(crate) struct LaneCells<T> {
    slots: Box<[Slot<T>]>,
    claims: Claims,
    lost: AtomicU64,
}

impl<T> LaneCells<T> {
    /// `lanes` worker cells plus the driver's, each built by `make`.
    pub(crate) fn new(lanes: usize, mut make: impl FnMut() -> T) -> Self {
        LaneCells {
            slots: (0..=lanes).map(|_| Slot(UnsafeCell::new(make()))).collect(),
            claims: Claims::new(lanes + 1),
            lost: AtomicU64::new(0),
        }
    }

    fn cells(&self) -> Cells<'_, T> {
        Cells {
            slots: &self.slots,
            claims: &self.claims,
        }
    }

    /// Number of cells, the driver's included.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Writes addressed to a lane with no cell.
    pub(crate) fn lost(&self) -> u64 {
        self.lost.load(Ordering::Relaxed)
    }

    /// Run `f` on `lane`'s cell as its current writer.
    #[inline]
    pub(crate) fn with(&self, lane: Lane, f: impl FnOnce(&mut T)) {
        let workers = self.slots.len() - 1;
        let index = match lane {
            Lane::Worker(w) if w < workers => w,
            Lane::Worker(_) => {
                self.lost.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Lane::Driver => workers,
        };
        self.cells().with(index, f)
    }

    /// Every cell, worker lanes first and the driver's last. Read-out side:
    /// call only while no phase is in flight.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T>
    where
        T: Sync,
    {
        self.cells().read().iter()
    }
}

/// A phase descriptor: the closure every pool lane runs once per phase,
/// handed its lane index and whether the lane parked (outlasted the spin and
/// yield rounds and slept) while waiting for the release.
pub(crate) type Job<'a> = &'a (dyn Fn(usize, bool) + Sync);

/// The pool's phase-descriptor slot: a thin pointer to a [`Job`] on the
/// driver's stack, lent to the worker lanes from release to completion.
#[derive(Default)]
pub(crate) struct JobSlot {
    job: AtomicPtr<()>,
    /// Lanes inside [`JobSlot::run`] (debug builds only).
    #[cfg(debug_assertions)]
    running: AtomicUsize,
}

impl JobSlot {
    /// Driver side: lend `job` to the lanes while `phase` runs. `phase`
    /// releases the lanes and returns only once every lane has returned
    /// from [`JobSlot::run`] (the completion crossing; checked in debug
    /// builds). The slot's Release stores pair with `run`'s Acquire load.
    pub(crate) fn lend<R>(&self, job: &Job<'_>, phase: impl FnOnce() -> R) -> R {
        self.job
            .store(job as *const Job<'_> as *mut (), Ordering::Release);
        let out = phase();
        #[cfg(debug_assertions)]
        assert_eq!(
            self.running.load(Ordering::Acquire),
            0,
            "the job slot was cleared while a lane ran its job (lane discipline broken)"
        );
        self.job.store(std::ptr::null_mut(), Ordering::Release);
        out
    }

    /// Worker side: run the lent job as `lane`. Call only between a release
    /// and the completion crossing.
    pub(crate) fn run(&self, lane: usize, parked: bool) {
        let job = self.job.load(Ordering::Acquire) as *const Job<'_>;
        assert!(!job.is_null(), "pool epoch bumped with no job");
        #[cfg(debug_assertions)]
        let _running = Running::enter(&self.running);
        // SAFETY: `lend` keeps the pointee alive until its `phase` returns,
        // which the completion crossing holds back until this call returned.
        let job = unsafe { *job };
        job(lane, parked)
    }
}

/// One lane inside [`JobSlot::run`]; leaving (also by unwinding) counts it
/// out.
#[cfg(debug_assertions)]
struct Running<'a>(&'a AtomicUsize);

#[cfg(debug_assertions)]
impl<'a> Running<'a> {
    fn enter(running: &'a AtomicUsize) -> Self {
        running.fetch_add(1, Ordering::AcqRel);
        Running(running)
    }
}

#[cfg(debug_assertions)]
impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Run `hold` on a second thread, handing it a call that blocks until
    /// `probe` has run on this thread, then re-raise `probe`'s panic.
    #[cfg(debug_assertions)]
    fn while_held(hold: impl FnOnce(&dyn Fn()) + Send, probe: impl FnOnce()) {
        let held = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                hold(&|| {
                    held.wait();
                    held.wait();
                })
            });
            held.wait();
            let second = catch_unwind(AssertUnwindSafe(probe));
            held.wait(); // let the holder out before unwinding, or the scope never joins
            if let Err(panic) = second {
                std::panic::resume_unwind(panic);
            }
        });
    }

    /// Thread A holds lane 0 inside `with`; thread B's `with` on the same
    /// lane must panic without ever running its closure.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "two writers at once")]
    fn a_second_writer_on_a_held_lane_panics_before_touching_the_cell() {
        let lanes = LaneCells::new(1, || 0u32);
        while_held(
            |inside| lanes.with(Lane::Worker(0), |_| inside()),
            || lanes.with(Lane::Worker(0), |_| unreachable!("cell was touched")),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cell 2 has two writers at once")]
    fn a_second_claim_on_a_held_rank_cell_panics_without_running_its_closure() {
        let (mut ranks, claims) = (vec![0u64; 4], Claims::new(4));
        let cells = Cells::new(&mut ranks, &claims);
        while_held(
            |inside| cells.with(2, |_| inside()),
            || cells.with(2, |_| unreachable!("cell was touched")),
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cell 1 read while a lane is writing it")]
    fn a_frozen_read_while_a_claim_is_open_panics() {
        let (mut posted, claims) = (vec![0u64; 4], Claims::new(4));
        let cells = Cells::new(&mut posted, &claims);
        while_held(
            |inside| cells.with(1, |_| inside()),
            || {
                cells.read();
            },
        );
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_claim_past_the_slices_end_panics() {
        let (mut ranks, claims) = (vec![0u8; 3], Claims::new(8));
        Cells::new(&mut ranks, &claims).with(3, |_| unreachable!("no such cell"));
    }

    #[test]
    fn claims_close_on_return_and_on_unwind() {
        let (mut ranks, claims) = (vec![1u32, 2, 3], Claims::new(3));
        let cells = Cells::new(&mut ranks, &claims);
        cells.with(1, |v| *v += 10);
        let unwound = catch_unwind(AssertUnwindSafe(|| cells.with(2, |_| panic!("kernel"))));
        assert!(unwound.is_err());
        assert_eq!(cells.read(), [1, 12, 3]);
        cells.with(2, |v| *v += 1);
        assert_eq!(ranks, [1, 12, 4], "the borrow ended with the cells");
    }
}
