//! Steady-state executor iterations must be allocation-free.
//!
//! The whole point of reusing an inspector schedule is that the executor
//! cost paid every iteration is as small as possible. With the flat CSR
//! schedule, `gather_into` + local compute + `scatter_op` into reused
//! buffers must not touch the heap at all: this test wraps the global
//! allocator in a counter, warms the loop up (first iterations may grow
//! stats tables and buffer capacities), and then asserts that further
//! iterations perform exactly zero allocations.

use chaos_repro::prelude::*;
use chaos_repro::runtime::{gather_into, scatter_op, Inspector, LocalRef};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Global allocator wrapper counting every allocation (and reallocation)
/// made on a thread that is inside a test body (see [`serialised`]).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Held by every test for the whole of its body: the counter is
/// process-global and libtest runs the tests on parallel threads.
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Set while this thread is inside a test body. libtest's own threads
    /// allocate whenever a test finishes or starts (reporting the result,
    /// spawning the next test), which can fall into the next test's
    /// measured window; those allocations are not the sweep's.
    static IN_TEST_BODY: Cell<bool> = const { Cell::new(false) };
}

struct Serialised {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serialised {
    fn drop(&mut self) {
        IN_TEST_BODY.with(|c| c.set(false));
    }
}

/// Take the file-wide lock and start counting this thread's allocations;
/// both end when the returned guard drops. A test that failed while holding
/// the lock must not fail the others, so poisoning is ignored (the lock
/// guards no data).
fn serialised() -> Serialised {
    let _lock = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    IN_TEST_BODY.with(|c| c.set(true));
    Serialised { _lock }
}

#[inline]
fn count() {
    if IN_TEST_BODY.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_executor_iteration_is_allocation_free() {
    let _serial = serialised();
    let nprocs = 8;
    let n = 4096usize;
    // A deterministic irregular distribution and access pattern (no RNG so
    // the test is bit-stable).
    let map: Vec<u32> = (0..n).map(|i| ((i * 7 + i / 13) % nprocs) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, nprocs);
    let data: Vec<f64> = (0..n).map(|i| 1.0 + (i % 97) as f64).collect();
    let x = DistArray::from_global("x", dist.clone(), &data);
    let mut y = DistArray::from_global("y", dist.clone(), &vec![0.0; n]);

    let mut pattern = AccessPattern::new(nprocs);
    for p in 0..nprocs {
        for k in 0..512 {
            pattern.refs[p].push(((p * 131 + k * 17) % n) as u32);
        }
    }

    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let inspect = Inspector.localize(&mut machine, "L", &dist, &pattern);
    machine.set_phase_kind(Some(PhaseKind::Executor));

    // Reused executor buffers: ghost values and ghost contributions.
    let mut ghosts: Vec<Vec<f64>> = (0..nprocs)
        .map(|p| vec![0.0; inspect.ghost_counts[p]])
        .collect();
    let mut contributions: Vec<Vec<f64>> = ghosts.clone();

    let iteration = |machine: &mut Machine,
                     y: &mut DistArray<f64>,
                     ghosts: &mut Vec<Vec<f64>>,
                     contributions: &mut Vec<Vec<f64>>| {
        gather_into(machine, "L", &inspect.schedule, &x, ghosts);
        for contrib in contributions.iter_mut() {
            contrib.fill(0.0);
        }
        // Local compute: y(ref) += 2 * x(ref) for every reference.
        for p in 0..nprocs {
            let x_local = x.local(p);
            let x_ghost = &ghosts[p];
            let contrib = &mut contributions[p];
            let mut owned_updates = 0u32;
            for r in &inspect.localized[p] {
                let v = 2.0 * *r.resolve(x_local, x_ghost);
                match *r {
                    LocalRef::Owned(_) => owned_updates += 1,
                    LocalRef::Ghost(slot) => contrib[slot as usize] += v,
                }
            }
            machine.charge_compute(p, owned_updates as f64);
        }
        // Owned updates write y directly.
        for p in 0..nprocs {
            let x_local = x.local(p);
            let y_local = y.local_mut(p);
            for r in &inspect.localized[p] {
                if let LocalRef::Owned(off) = *r {
                    y_local[off as usize] += 2.0 * x_local[off as usize];
                }
            }
        }
        scatter_op(machine, "L", &inspect.schedule, y, contributions, |a, b| {
            *a += b
        });
    };

    // Warm-up: grows per-kind stats entries and any lazily-sized state.
    for _ in 0..3 {
        iteration(&mut machine, &mut y, &mut ghosts, &mut contributions);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let messages_before = machine.stats().grand_totals().messages;
    for _ in 0..10 {
        iteration(&mut machine, &mut y, &mut ghosts, &mut contributions);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let messages_after = machine.stats().grand_totals().messages;

    assert_eq!(
        after - before,
        0,
        "steady-state executor iterations allocated {} times",
        after - before
    );
    // The iterations really did run and charge communication.
    assert!(messages_after > messages_before);
    assert!(machine.elapsed().max_seconds() > 0.0);
}

/// The fused sweep must be just as allocation-free as the engine phases:
/// `gather_inline` + `Backend::run_sweep` drive the same pack / compute /
/// combine kernels through driver-side contexts and a stack-local
/// `PhaseCharge`, so a steady-state fused sweep — one epoch for the whole
/// gather → compute → scatter — performs exactly zero allocations once the
/// per-rank sweep areas exist.
#[test]
fn steady_state_fused_sweep_is_allocation_free() {
    let _serial = serialised();
    use chaos_repro::runtime::{gather_inline, scatter_combine_rows, scatter_pack_kernel, Landing};

    struct RankArea {
        ghosts: Vec<f64>,
        contrib: Vec<f64>,
    }

    let nprocs = 8;
    let n = 4096usize;
    let map: Vec<u32> = (0..n).map(|i| ((i * 7 + i / 13) % nprocs) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, nprocs);
    let data: Vec<f64> = (0..n).map(|i| 1.0 + (i % 97) as f64).collect();
    let x = DistArray::from_global("x", dist.clone(), &data);

    let mut pattern = AccessPattern::new(nprocs);
    for p in 0..nprocs {
        for k in 0..512 {
            pattern.refs[p].push(((p * 131 + k * 17) % n) as u32);
        }
    }

    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let inspect = Inspector.localize(&mut machine, "L", &dist, &pattern);
    machine.set_phase_kind(Some(PhaseKind::Executor));

    // Persistent state: per-rank y shards (the sweep scratch) and per-rank
    // sweep areas holding ghost values and ghost contributions (the posted
    // halves, frozen during combine).
    let mut y: Vec<Vec<f64>> = (0..nprocs).map(|p| vec![0.0; x.local(p).len()]).collect();
    let mut areas: Vec<RankArea> = (0..nprocs)
        .map(|p| RankArea {
            ghosts: vec![0.0; inspect.ghost_counts[p]],
            contrib: vec![0.0; inspect.ghost_counts[p]],
        })
        .collect();

    let sweep = |machine: &mut Machine, y: &mut Vec<Vec<f64>>, areas: &mut Vec<RankArea>| {
        gather_inline(
            machine,
            &inspect.schedule,
            &x,
            Landing::Slots,
            areas.iter_mut().map(|a| &mut a.ghosts),
        );
        machine.run_sweep(
            &mut y[..],
            &mut areas[..],
            |ctx, y_local, area| {
                let rank = ctx.rank();
                area.contrib.fill(0.0);
                let x_local = x.local(rank);
                let mut owned = 0u32;
                for r in &inspect.localized[rank] {
                    match *r {
                        LocalRef::Owned(off) => {
                            y_local[off as usize] += 2.0 * x_local[off as usize];
                            owned += 1;
                        }
                        LocalRef::Ghost(slot) => {
                            area.contrib[slot as usize] += 2.0 * area.ghosts[slot as usize];
                        }
                    }
                }
                ctx.charge_compute(rank, owned as f64);
            },
            1,
            |_areas, _j| true,
            |ctx, _j| scatter_pack_kernel(ctx, &inspect.schedule),
            |ctx, _j, y_local, areas| {
                scatter_combine_rows(
                    ctx,
                    &inspect.schedule,
                    |p| areas[p].contrib.as_slice(),
                    &mut y_local[..],
                    &|a, b| *a += b,
                );
            },
        );
    };

    // Warm-up: grows per-kind stats entries and any lazily-sized state.
    for _ in 0..3 {
        sweep(&mut machine, &mut y, &mut areas);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let epoch_before = machine.epoch();
    let messages_before = machine.stats().grand_totals().messages;
    for _ in 0..10 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state fused sweeps allocated {} times",
        after - before
    );
    // Ten sweeps advanced exactly ten epochs (one per fused sweep) and
    // really communicated.
    assert_eq!(machine.epoch(), epoch_before + 10);
    assert!(machine.stats().grand_totals().messages > messages_before);
    assert!(machine.elapsed().max_seconds() > 0.0);
}

/// Tracing must be zero-cost in the heap sense on both sides of the switch:
/// with no `TraceSink` installed the steady-state sweep's only trace cost is
/// one `Option` check per hook (zero allocations — the contract that lets
/// the hooks live on the hot path at all), and with a sink *installed* the
/// preallocated per-lane rings absorb every recorded event, so steady-state
/// recording is allocation-free too (the rings wrap; they never grow).
#[test]
fn steady_state_sweep_is_allocation_free_with_tracing_disabled_and_enabled() {
    let _serial = serialised();
    use chaos_repro::dmsim::TraceSink;
    use chaos_repro::runtime::{gather_inline, scatter_combine_rows, scatter_pack_kernel, Landing};
    use std::sync::Arc;

    struct RankArea {
        ghosts: Vec<f64>,
        contrib: Vec<f64>,
    }

    let nprocs = 8;
    let n = 4096usize;
    let map: Vec<u32> = (0..n).map(|i| ((i * 3 + i / 17) % nprocs) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, nprocs);
    let data: Vec<f64> = (0..n).map(|i| 2.0 + (i % 61) as f64).collect();
    let x = DistArray::from_global("x", dist.clone(), &data);

    let mut pattern = AccessPattern::new(nprocs);
    for p in 0..nprocs {
        for k in 0..512 {
            pattern.refs[p].push(((p * 127 + k * 19) % n) as u32);
        }
    }

    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let inspect = Inspector.localize(&mut machine, "L", &dist, &pattern);
    machine.set_phase_kind(Some(PhaseKind::Executor));

    let mut y: Vec<Vec<f64>> = (0..nprocs).map(|p| vec![0.0; x.local(p).len()]).collect();
    let mut areas: Vec<RankArea> = (0..nprocs)
        .map(|p| RankArea {
            ghosts: vec![0.0; inspect.ghost_counts[p]],
            contrib: vec![0.0; inspect.ghost_counts[p]],
        })
        .collect();

    let sweep = |machine: &mut Machine, y: &mut Vec<Vec<f64>>, areas: &mut Vec<RankArea>| {
        gather_inline(
            machine,
            &inspect.schedule,
            &x,
            Landing::Slots,
            areas.iter_mut().map(|a| &mut a.ghosts),
        );
        machine.run_sweep(
            &mut y[..],
            &mut areas[..],
            |ctx, y_local, area| {
                let rank = ctx.rank();
                area.contrib.fill(0.0);
                let x_local = x.local(rank);
                let mut owned = 0u32;
                for r in &inspect.localized[rank] {
                    match *r {
                        LocalRef::Owned(off) => {
                            y_local[off as usize] += 2.0 * x_local[off as usize];
                            owned += 1;
                        }
                        LocalRef::Ghost(slot) => {
                            area.contrib[slot as usize] += 2.0 * area.ghosts[slot as usize];
                        }
                    }
                }
                ctx.charge_compute(rank, owned as f64);
            },
            1,
            |_areas, _j| true,
            |ctx, _j| scatter_pack_kernel(ctx, &inspect.schedule),
            |ctx, _j, y_local, areas| {
                scatter_combine_rows(
                    ctx,
                    &inspect.schedule,
                    |p| areas[p].contrib.as_slice(),
                    &mut y_local[..],
                    &|a, b| *a += b,
                );
            },
        );
    };

    // Disabled trace: a sink was installed once and then removed, so the
    // `None` branch of every hook is the one actually running.
    let sink = Arc::new(TraceSink::new(0));
    machine.install_trace(Some(Arc::clone(&sink)));
    machine.install_trace(None);
    for _ in 0..3 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let disabled_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        disabled_allocs, 0,
        "disabled-trace steady-state sweeps allocated {disabled_allocs} times"
    );

    // Enabled trace: the rings were preallocated at construction and wrap
    // in place, so recording every sweep's events still allocates nothing.
    machine.install_trace(Some(Arc::clone(&sink)));
    for _ in 0..3 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let events_before: usize = (0..sink.lanes()).map(|l| sink.events(l).len()).sum();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let enabled_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let events_after: usize = (0..sink.lanes()).map(|l| sink.events(l).len()).sum();
    assert_eq!(
        enabled_allocs, 0,
        "enabled-trace steady-state sweeps allocated {enabled_allocs} times"
    );
    // The traced sweeps really recorded (ring growth or wrap, not silence).
    assert!(
        events_after > events_before || sink.dropped() > 0,
        "traced sweeps recorded no events"
    );
}

/// Metering must be zero-cost in the heap sense on both sides of the
/// switch, exactly like tracing: with no `MetricsRegistry` installed the
/// steady-state sweep's only metering cost is one `Option` check per hook
/// (zero allocations), and with a registry *installed* the preallocated
/// per-lane counter/histogram shards absorb every increment and span
/// sample, so steady-state metering is allocation-free too (fixed-bucket
/// histograms never grow).
#[test]
fn steady_state_sweep_is_allocation_free_with_metrics_disabled_and_enabled() {
    let _serial = serialised();
    use chaos_repro::dmsim::{Counter, MetricsRegistry};
    use chaos_repro::runtime::{gather_inline, scatter_combine_rows, scatter_pack_kernel, Landing};
    use std::sync::Arc;

    struct RankArea {
        ghosts: Vec<f64>,
        contrib: Vec<f64>,
    }

    let nprocs = 8;
    let n = 4096usize;
    let map: Vec<u32> = (0..n).map(|i| ((i * 3 + i / 17) % nprocs) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, nprocs);
    let data: Vec<f64> = (0..n).map(|i| 2.0 + (i % 61) as f64).collect();
    let x = DistArray::from_global("x", dist.clone(), &data);

    let mut pattern = AccessPattern::new(nprocs);
    for p in 0..nprocs {
        for k in 0..512 {
            pattern.refs[p].push(((p * 127 + k * 19) % n) as u32);
        }
    }

    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let inspect = Inspector.localize(&mut machine, "L", &dist, &pattern);
    machine.set_phase_kind(Some(PhaseKind::Executor));

    let mut y: Vec<Vec<f64>> = (0..nprocs).map(|p| vec![0.0; x.local(p).len()]).collect();
    let mut areas: Vec<RankArea> = (0..nprocs)
        .map(|p| RankArea {
            ghosts: vec![0.0; inspect.ghost_counts[p]],
            contrib: vec![0.0; inspect.ghost_counts[p]],
        })
        .collect();

    let sweep = |machine: &mut Machine, y: &mut Vec<Vec<f64>>, areas: &mut Vec<RankArea>| {
        gather_inline(
            machine,
            &inspect.schedule,
            &x,
            Landing::Slots,
            areas.iter_mut().map(|a| &mut a.ghosts),
        );
        machine.run_sweep(
            &mut y[..],
            &mut areas[..],
            |ctx, y_local, area| {
                let rank = ctx.rank();
                area.contrib.fill(0.0);
                let x_local = x.local(rank);
                let mut owned = 0u32;
                for r in &inspect.localized[rank] {
                    match *r {
                        LocalRef::Owned(off) => {
                            y_local[off as usize] += 2.0 * x_local[off as usize];
                            owned += 1;
                        }
                        LocalRef::Ghost(slot) => {
                            area.contrib[slot as usize] += 2.0 * area.ghosts[slot as usize];
                        }
                    }
                }
                ctx.charge_compute(rank, owned as f64);
            },
            1,
            |_areas, _j| true,
            |ctx, _j| scatter_pack_kernel(ctx, &inspect.schedule),
            |ctx, _j, y_local, areas| {
                scatter_combine_rows(
                    ctx,
                    &inspect.schedule,
                    |p| areas[p].contrib.as_slice(),
                    &mut y_local[..],
                    &|a, b| *a += b,
                );
            },
        );
    };

    // Disabled metrics: a registry was installed once and then removed, so
    // the `None` branch of every hook is the one actually running.
    let registry = Arc::new(MetricsRegistry::new(0));
    machine.install_metrics(Some(Arc::clone(&registry)));
    machine.install_metrics(None);
    for _ in 0..3 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let disabled_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        disabled_allocs, 0,
        "disabled-metrics steady-state sweeps allocated {disabled_allocs} times"
    );

    // Enabled metrics: the shards were preallocated at construction, so
    // counting and span recording every sweep still allocates nothing.
    machine.install_metrics(Some(Arc::clone(&registry)));
    for _ in 0..3 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let epochs_before = registry.snapshot().counter(Counter::Epochs);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        sweep(&mut machine, &mut y, &mut areas);
    }
    let enabled_allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        enabled_allocs, 0,
        "enabled-metrics steady-state sweeps allocated {enabled_allocs} times"
    );
    // The metered sweeps really recorded: ten more epochs and fresh spans.
    let snap = registry.snapshot();
    assert_eq!(snap.counter(Counter::Epochs), epochs_before + 10);
    assert!(snap.counter(Counter::KernelRuns) > 0);
    assert!(snap.counter(Counter::PackMessages) > 0);
    assert!(!snap.spans.is_empty(), "no span histograms recorded");
}

/// Incremental cross-loop re-binding must not perturb the steady-state heap
/// profile either: once two loops over the same distribution have bound
/// into the shared ghost region, a steady-state iteration is two
/// offset-gathers (the second fetching only the ghosts the first didn't)
/// plus slot-map reads out of the shared region rows — all into reused
/// buffers, zero allocations.
#[test]
fn steady_state_incremental_region_gather_is_allocation_free() {
    let _serial = serialised();
    use chaos_repro::runtime::{gather_inline, Dad, Inspector, Landing, ReuseRegistry};

    let nprocs = 8;
    let n = 4096usize;
    let map: Vec<u32> = (0..n).map(|i| ((i * 7 + i / 13) % nprocs) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, nprocs);
    let data: Vec<f64> = (0..n).map(|i| 1.0 + (i % 97) as f64).collect();
    let x = DistArray::from_global("x", dist.clone(), &data);

    // Two overlapping access patterns over the same distribution: the
    // second repeats half the first loop's references and adds new ones.
    let mut first = AccessPattern::new(nprocs);
    let mut second = AccessPattern::new(nprocs);
    for p in 0..nprocs {
        for k in 0..512 {
            let r = ((p * 131 + k * 17) % n) as u32;
            first.refs[p].push(r);
            second.refs[p].push(if k % 2 == 0 {
                r
            } else {
                ((p * 173 + k * 29) % n) as u32
            });
        }
    }

    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let r1 = Inspector.localize(&mut machine, "L1", &dist, &first);
    let r2 = Inspector.localize(&mut machine, "L2", &dist, &second);

    // Bind both loops into the shared ghost region (inspector-time work,
    // done once). The second bind's difference must be a strict subset.
    let mut registry = ReuseRegistry::new();
    let sig = Dad::of(&dist).signature();
    let rb1 = registry.region_bind(sig, 1, &r1.schedule);
    let rb2 = registry.region_bind(sig, 2, &r2.schedule);
    assert!(
        rb2.diff.total_ghosts() < r2.schedule.total_ghosts(),
        "second loop should re-bind resident ghosts instead of refetching"
    );
    let region = registry.region(sig).expect("region exists");
    let mut rows: Vec<Vec<f64>> = (0..nprocs).map(|p| vec![0.0; region.size(p)]).collect();

    machine.set_phase_kind(Some(PhaseKind::Executor));
    let mut acc = vec![0.0f64; nprocs];
    let sweep = |machine: &mut Machine, rows: &mut Vec<Vec<f64>>, acc: &mut Vec<f64>| {
        for rb in [&rb1, &rb2] {
            gather_inline(
                machine,
                &rb.diff,
                &x,
                Landing::Offset(&rb.base),
                rows.iter_mut(),
            );
        }
        // Read every ghost of both loops through its slot map — the region
        // rows serve both loops' reads without a second fetch.
        for p in 0..nprocs {
            let mut sum = 0.0;
            for g in 0..r1.schedule.ghost_count(p) {
                sum += rows[p][rb1.slot_map[p][g] as usize];
            }
            for g in 0..r2.schedule.ghost_count(p) {
                sum += rows[p][rb2.slot_map[p][g] as usize];
            }
            acc[p] += sum;
            machine.charge_compute(
                p,
                (r1.schedule.ghost_count(p) + r2.schedule.ghost_count(p)) as f64,
            );
        }
    };

    for _ in 0..3 {
        sweep(&mut machine, &mut rows, &mut acc);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let messages_before = machine.stats().grand_totals().messages;
    for _ in 0..10 {
        sweep(&mut machine, &mut rows, &mut acc);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state incremental region gathers allocated {} times",
        after - before
    );
    // The sweeps really gathered (both loops' fetches charge messages) and
    // the slot maps really addressed every resident ghost value.
    assert!(machine.stats().grand_totals().messages > messages_before);
    assert!(acc.iter().all(|v| *v > 0.0));
    assert!(machine.elapsed().max_seconds() > 0.0);
}

/// Checkpoint / rollback of a steady epoch must also be allocation-free:
/// `Machine::snapshot_into` / `restore_from` reuse the snapshot's buffers,
/// and `DistArray::copy_values_from` overwrites shard values in place. This
/// is what keeps the executor's epoch-checkpoint cadence from perturbing the
/// steady-state heap profile.
#[test]
fn checkpoint_and_rollback_of_a_steady_epoch_are_allocation_free() {
    let _serial = serialised();
    use chaos_repro::dmsim::MachineSnapshot;
    use chaos_repro::runtime::charge_checkpoint;

    let nprocs = 8;
    let n = 4096usize;
    let map: Vec<u32> = (0..n).map(|i| ((i * 5 + i / 11) % nprocs) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, nprocs);
    let data: Vec<f64> = (0..n).map(|i| 0.5 + (i % 89) as f64).collect();
    let mut y = DistArray::from_global("y", dist.clone(), &data);
    let mut ckpt_y = y.clone();

    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    machine.set_phase_kind(Some(PhaseKind::Executor));
    let mut snap = MachineSnapshot::new();
    let rank_words: Vec<usize> = (0..nprocs).map(|p| y.local(p).len()).collect();

    let iteration = |machine: &mut Machine,
                     y: &mut DistArray<f64>,
                     ckpt_y: &mut DistArray<f64>,
                     snap: &mut MachineSnapshot| {
        // Refresh the checkpoint: charge the modeled scan cost, then copy
        // the machine state and the array values into the reused buffers.
        charge_checkpoint(machine, &rank_words);
        machine.snapshot_into(snap);
        ckpt_y.copy_values_from(y);
        // One epoch of work that dirties both the values and the clocks.
        for p in 0..nprocs {
            let y_local = y.local_mut(p);
            for v in y_local.iter_mut() {
                *v = *v * 1.0001 + 0.25;
            }
            machine.charge_compute(p, y.local(p).len() as f64);
        }
        // Injected failure: roll the epoch back.
        machine.restore_from(snap);
        y.copy_values_from(ckpt_y);
    };

    // Warm-up grows the snapshot buffers and the per-kind stats entries.
    for _ in 0..3 {
        iteration(&mut machine, &mut y, &mut ckpt_y, &mut snap);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let epoch_before = machine.epoch();
    for _ in 0..10 {
        iteration(&mut machine, &mut y, &mut ckpt_y, &mut snap);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "steady-state checkpoint/rollback allocated {} times",
        after - before
    );
    // The rollbacks really happened: values match the checkpoint bit for
    // bit, and only the checkpoint-scan epochs advanced the machine.
    for p in 0..nprocs {
        for (a, b) in y.local(p).iter().zip(ckpt_y.local(p)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert_eq!(machine.epoch(), epoch_before + 10);
    assert!(machine.elapsed().max_seconds() > 0.0);
}
