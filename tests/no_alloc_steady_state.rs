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
use chaos_repro::runtime::{gather_into, resolve_local, scatter_op, Inspector};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Global allocator wrapper counting every allocation (and reallocation)
/// made on a thread that is inside a test body (see [`serialised`]) — and,
/// while [`ALL_THREADS`] is set, on every other thread too.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Set around a measured window that must also see what the pool's worker
/// lanes allocate (see [`executor_sweep_allocations`]).
static ALL_THREADS: AtomicBool = AtomicBool::new(false);

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
    if ALL_THREADS.load(Ordering::Relaxed) || IN_TEST_BODY.try_with(Cell::get).unwrap_or(false) {
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
    let inspect = Inspector.localize(&mut machine, &dist, &pattern);
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
            for &r in &inspect.localized[p] {
                let v = 2.0 * *resolve_local(r, x_local, x_ghost);
                match (r as usize).checked_sub(x_local.len()) {
                    None => owned_updates += 1,
                    Some(slot) => contrib[slot] += v,
                }
            }
            machine.charge_compute(p, owned_updates as f64);
        }
        // Owned updates write y directly.
        for p in 0..nprocs {
            let x_local = x.local(p);
            let y_local = y.local_mut(p);
            for &r in &inspect.localized[p] {
                if let Some(x) = x_local.get(r as usize) {
                    y_local[r as usize] += 2.0 * x;
                }
            }
        }
        scatter_op(machine, &inspect.schedule, y, contributions, |a, b| *a += b);
    };

    // Warm-up: grows any lazily-sized state.
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

/// One rank's sweep area: ghost values and ghost contributions (the posted
/// half of a fused sweep, frozen during combine).
struct RankArea {
    ghosts: Vec<f64>,
    contrib: Vec<f64>,
}

/// A fused-sweep workload on the sequential engine with all its persistent
/// state — the inspected schedule, per-rank `y` shards (the sweep scratch)
/// and per-rank sweep areas — so [`FusedSweep::sweep`] is one steady-state
/// gather → compute → scatter epoch.
struct FusedSweep {
    machine: Machine,
    x: DistArray<f64>,
    inspect: chaos_repro::runtime::InspectorResult,
    y: Vec<Vec<f64>>,
    areas: Vec<RankArea>,
    /// Where each rank's ghosts land in its area's `ghosts` row: at 0, the
    /// row being exactly the schedule's ghost buffer.
    bases: Vec<u32>,
}

impl FusedSweep {
    fn new() -> Self {
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
        let inspect = Inspector.localize(&mut machine, &dist, &pattern);
        machine.set_phase_kind(Some(PhaseKind::Executor));
        let y = (0..nprocs).map(|p| vec![0.0; x.local(p).len()]).collect();
        let areas = (0..nprocs)
            .map(|p| RankArea {
                ghosts: vec![0.0; inspect.ghost_counts[p]],
                contrib: vec![0.0; inspect.ghost_counts[p]],
            })
            .collect();
        FusedSweep {
            machine,
            x,
            inspect,
            y,
            areas,
            bases: vec![0; nprocs],
        }
    }

    fn sweep(&mut self) {
        use chaos_repro::runtime::{
            gather_inline, scatter_combine_rows, scatter_pack_kernel, Landing,
        };
        let (x, inspect) = (&self.x, &self.inspect);
        gather_inline(
            &mut self.machine,
            &inspect.schedule,
            x,
            Landing::Offset(&self.bases),
            self.areas.iter_mut().map(|a| &mut a.ghosts),
        );
        self.machine.run_sweep(
            &mut self.y[..],
            &mut self.areas[..],
            |ctx, y_local, area| {
                let rank = ctx.rank();
                area.contrib.fill(0.0);
                let x_local = x.local(rank);
                let mut owned = 0u32;
                for &r in &inspect.localized[rank] {
                    match (r as usize).checked_sub(x_local.len()) {
                        None => {
                            y_local[r as usize] += 2.0 * x_local[r as usize];
                            owned += 1;
                        }
                        Some(slot) => area.contrib[slot] += 2.0 * area.ghosts[slot],
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
    }

    /// Allocations made by `sweeps` further sweeps.
    fn allocations_over(&mut self, sweeps: usize) -> u64 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..sweeps {
            self.sweep();
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    }
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
    let mut fused = FusedSweep::new();
    // Warm-up: grows any lazily-sized state.
    fused.allocations_over(3);

    let epoch_before = fused.machine.epoch();
    let messages_before = fused.machine.stats().grand_totals().messages;
    let allocs = fused.allocations_over(10);
    assert_eq!(
        allocs, 0,
        "steady-state fused sweeps allocated {allocs} times"
    );
    // Ten sweeps advanced exactly ten epochs (one per fused sweep) and
    // really communicated.
    assert_eq!(fused.machine.epoch(), epoch_before + 10);
    assert!(fused.machine.stats().grand_totals().messages > messages_before);
    assert!(fused.machine.elapsed().max_seconds() > 0.0);
}

/// Observing must be zero-cost in the heap sense on both sides of the
/// switch, for the flight recorder, the metrics registry and both together:
/// with the observers installed once and then removed, the steady-state
/// sweep's only cost is the disabled branch of every hook (zero allocations
/// — the contract that lets the hooks live on the hot path at all), and with
/// them *installed* the preallocated per-lane rings and shards absorb every
/// event, increment and span sample, so steady-state recording is
/// allocation-free too (rings wrap, fixed-bucket histograms never grow).
#[test]
fn steady_state_sweep_is_allocation_free_with_observers_off_and_on() {
    let _serial = serialised();
    use chaos_repro::dmsim::{Counter, MetricsRegistry, TraceSink};
    use std::sync::Arc;

    let mut fused = FusedSweep::new();
    for (trace, metrics) in [(true, false), (false, true), (true, true)] {
        let sink = trace.then(|| Arc::new(TraceSink::new(0)));
        let registry = metrics.then(|| Arc::new(MetricsRegistry::new(0)));
        let recorded = || {
            let events = sink
                .iter()
                .map(|s| (0..s.lanes()).map(|l| s.events(l).len()).sum::<usize>())
                .sum::<usize>();
            let epochs = registry
                .iter()
                .map(|r| r.snapshot().counter(Counter::Epochs))
                .sum::<u64>();
            (events, epochs)
        };
        for installed in [false, true] {
            // Not installed: the observers were installed once and then
            // removed, so the disabled branch of every hook is the one
            // actually running.
            fused.machine.install_trace(sink.clone());
            fused.machine.install_metrics(registry.clone());
            if !installed {
                fused.machine.install_trace(None);
                fused.machine.install_metrics(None);
            }
            fused.allocations_over(3);
            let (events_before, epochs_before) = recorded();
            let allocs = fused.allocations_over(10);
            assert_eq!(
                allocs, 0,
                "steady-state sweeps allocated {allocs} times with trace={trace} \
                 metrics={metrics} installed={installed}"
            );
            if !installed {
                continue;
            }
            // The observed sweeps really recorded, not silence: ring growth
            // or wrap, ten more epochs and fresh spans.
            let (events_after, epochs_after) = recorded();
            if let Some(sink) = &sink {
                assert!(
                    events_after > events_before || sink.dropped() > 0,
                    "traced sweeps recorded no events"
                );
            }
            if let Some(registry) = &registry {
                assert_eq!(epochs_after, epochs_before + 10);
                let snap = registry.snapshot();
                assert!(snap.counter(Counter::KernelRuns) > 0);
                assert!(snap.counter(Counter::PackMessages) > 0);
                assert!(!snap.spans.is_empty(), "no span histograms recorded");
            }
        }
    }
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
    let r1 = Inspector.localize(&mut machine, &dist, &first);
    let r2 = Inspector.localize(&mut machine, &dist, &second);

    // Bind both loops into the shared ghost region (inspector-time work,
    // done once). The second bind's difference must be a strict subset.
    let mut registry = ReuseRegistry::new();
    let sig = Dad::of(&dist).signature();
    let rb1 = registry.region_bind(sig, &r1.schedule);
    let rb2 = registry.region_bind(sig, &r2.schedule);
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

    // Warm-up grows the snapshot buffers.
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

/// The machine's per-kind ledgers (statistics totals and critical-path
/// phase time) are fixed-size tables: a phase kind seen for the first time
/// inserts nothing, and a snapshot or restore across it copies in place.
#[test]
fn snapshot_and_restore_across_a_new_phase_kind_allocate_nothing() {
    let _serial = serialised();
    use chaos_repro::dmsim::{MachineSnapshot, PhaseCharge};

    let nprocs = 8;
    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let mut snap = MachineSnapshot::new();
    let one_phase = |machine: &mut Machine| {
        let mut phase = PhaseCharge::new();
        machine.charge_p2p(&mut phase, 0, nprocs - 1, 16);
        machine.end_phase(phase);
    };

    // Warm-up: executor phases and snapshot / restore rounds grow the
    // snapshot's buffers.
    machine.set_phase_kind(Some(PhaseKind::Executor));
    for _ in 0..3 {
        one_phase(&mut machine);
        machine.snapshot_into(&mut snap);
        machine.restore_from(&snap);
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    machine.set_phase_kind(Some(PhaseKind::Checkpoint));
    one_phase(&mut machine);
    machine.set_phase_kind(Some(PhaseKind::Executor));
    machine.snapshot_into(&mut snap);
    machine.restore_from(&snap);
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "a first phase of a new kind plus snapshot / restore allocated {} times",
        after - before
    );
    assert_eq!(
        machine.stats().totals_for(PhaseKind::Checkpoint).messages,
        1
    );
    assert!(machine.phase_elapsed(PhaseKind::Checkpoint) > 0.0);
}

/// Closing a phase allocates nothing, whoever closes it: an inspection's
/// request exchange (`charge_request_exchange`) and a charge-only region
/// (`run_charge_phase`, the translation table's dereference rounds) merge
/// their statistics into the per-kind totals and apply the barrier, with no
/// name built and nothing kept per phase.
#[test]
fn request_exchange_and_charge_phase_allocate_nothing() {
    let _serial = serialised();
    use chaos_repro::dmsim::Backend;
    use chaos_repro::runtime::charge_request_exchange;

    let nprocs = 8;
    let n = 4096usize;
    let map: Vec<u32> = (0..n).map(|i| ((i * 3 + i / 7) % nprocs) as u32).collect();
    let dist = Distribution::irregular_from_map(&map, nprocs);
    let mut pattern = AccessPattern::new(nprocs);
    for p in 0..nprocs {
        for k in 0..256 {
            pattern.refs[p].push(((p * 97 + k * 31) % n) as u32);
        }
    }
    let mut machine = Machine::new(MachineConfig::ipsc860(nprocs));
    let schedule = Inspector.localize(&mut machine, &dist, &pattern).schedule;
    assert!(
        schedule.message_count() > 0,
        "the exchange carries messages"
    );

    machine.set_phase_kind(Some(PhaseKind::Inspector));
    let round = |machine: &mut Machine| {
        charge_request_exchange(machine, &[&schedule]);
        machine.run_charge_phase(|ctx| {
            let p = ctx.rank();
            ctx.charge_p2p(p, (p + 1) % ctx.nprocs(), 4);
        });
    };
    for _ in 0..3 {
        round(&mut machine);
    }

    let phases_before = machine.stats().totals_for(PhaseKind::Inspector).phases;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        round(&mut machine);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "ten request exchanges and charge phases allocated {} times",
        after - before
    );
    let phases = machine.stats().totals_for(PhaseKind::Inspector).phases;
    assert_eq!(phases - phases_before, 20, "every phase was counted");
}

/// Allocations over ten `execute_loop`s of `cp`, after `run` and three
/// warm-up sweeps. A `steady` executor (reuse on: only `run` inspects) is
/// counted on every thread, the pool's worker lanes included; a libtest
/// thread still reporting the previous test can fall into such a window,
/// so three are measured and the median returned. A re-inspecting one
/// (reuse off: every sweep inspects) is counted on this thread, once.
fn executor_sweep_allocations<B: chaos_repro::dmsim::Backend>(
    mut exec: Executor<B>,
    cp: &chaos_repro::lang::CompiledProgram,
    steady: bool,
) -> u64 {
    exec.run(cp).expect("program runs");
    for _ in 0..3 {
        exec.execute_loop(cp, "L1").expect("warm-up sweep");
    }
    let mut windows: Vec<u64> = (0..if steady { 3 } else { 1 })
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            ALL_THREADS.store(steady, Ordering::Relaxed);
            for _ in 0..10 {
                exec.execute_loop(cp, "L1").expect("measured sweep");
            }
            ALL_THREADS.store(false, Ordering::Relaxed);
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .collect();
    windows.sort_unstable();
    let sweeps = 4 + 10 * windows.len();
    let inspections = if steady { 1 } else { sweeps };
    assert_eq!(exec.report().inspector_runs, inspections);
    assert_eq!(
        exec.report().kernel_reuse_hits,
        sweeps - inspections,
        "every sweep that skipped the inspector reused the compiled kernel"
    );
    windows[windows.len() / 2]
}

/// The allocation claim on the path users run: the lang `Executor`, Table
/// 2's RCB program, compiled kernel, on `Machine` and on a 2-lane pool with
/// every thread counted. A steady sweep builds nothing: the guard compares
/// stored signatures with DADs read in place and charges its vote like any
/// other message, the ranks read through one shared view, and the three
/// borrow tables the sweep lends through (the view's read-only arrays, the
/// written shards, their per-rank rows) are parked empty on the executor
/// between sweeps and re-lent. So the count is zero at 4 and 32 ranks, on
/// both meshes and on both engines.
#[test]
fn steady_executor_sweep_allocates_nothing() {
    let _serial = serialised();
    use chaos_bench::compilergen::{program_inputs, program_text};
    use chaos_bench::experiment::Method;
    use chaos_bench::workload::mesh_workload;

    let src = program_text(Method::Rcb);
    let cp = lower_program(parse_program(&src).unwrap()).unwrap();
    let meshes = [1_000, 4_000].map(|n| program_inputs(&mesh_workload(MeshConfig::tiny(n))));
    let mut counts = Vec::new();
    for nprocs in [4usize, 32] {
        let cfg = || MachineConfig::ipsc860(nprocs);
        for inputs in &meshes {
            let machine = Executor::new(cfg(), inputs.clone());
            counts.push(executor_sweep_allocations(machine, &cp, true));
            let pool = Executor::new_pooled_with_workers(cfg(), 2, inputs.clone());
            counts.push(executor_sweep_allocations(pool, &cp, true));
        }
    }
    assert!(
        counts.iter().all(|&c| c == 0),
        "ten steady sweeps allocated, per (ranks, mesh, engine): {counts:?}"
    );
}

/// The other half of the claim, on the path that cannot reuse: with
/// `with_reuse(false)` every sweep re-runs the inspector, and what that
/// allocates is per rank and per group — the reference table, the
/// iteration lists, the access patterns, the schedule — never per
/// iteration. So the count over ten re-inspecting sweeps is the same on a
/// mesh four times the size.
#[test]
fn reinspecting_sweep_allocations_do_not_grow_with_the_loop() {
    let _serial = serialised();
    use chaos_bench::compilergen::{program_inputs, program_text};
    use chaos_bench::experiment::Method;
    use chaos_bench::workload::mesh_workload;

    let src = program_text(Method::Rcb);
    let cp = lower_program(parse_program(&src).unwrap()).unwrap();
    let [small, large] = [1_000, 4_000].map(|n| {
        let inputs = program_inputs(&mesh_workload(MeshConfig::tiny(n)));
        let exec = Executor::new(MachineConfig::ipsc860(4), inputs).with_reuse(false);
        executor_sweep_allocations(exec, &cp, false)
    });
    assert_eq!(
        small, large,
        "ten re-inspections allocated {small} times on the 1k mesh, {large} on the 4k"
    );
}
