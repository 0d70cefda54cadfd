//! A focused demonstration of the paper's second contribution: conservative
//! communication-schedule reuse driven by data access descriptors (DADs) and
//! the global modification stamp `nmod`.
//!
//! The example walks through the cases of Section 3:
//!
//! 1. repeated execution of an unchanged loop → schedules reused,
//! 2. writes to *data* arrays (the loop's own output) → still reused,
//! 3. writes to an *indirection* array → inspector re-runs,
//! 4. remapping a data array (`REDISTRIBUTE`) → inspector re-runs.
//!
//! Run with `cargo run --example schedule_reuse --release`.

use chaos_repro::prelude::*;
use chaos_runtime::{Dad, LoopId};

fn main() {
    let mut registry = ReuseRegistry::new();
    let nprocs = 8;

    // Arrays of the paper's loop L2: data arrays x, y on the node
    // decomposition; indirection arrays end_pt1, end_pt2 on the edge
    // decomposition.
    let nnodes = 10_000;
    let nedges = 35_000;
    let node_dist = Distribution::block(nnodes, nprocs);
    let edge_dist = Distribution::block(nedges, nprocs);
    let x_dad = Dad::of(&node_dist);
    let y_dad = Dad::of(&node_dist);
    let ind_dad = Dad::of(&edge_dist);
    let loop_id = LoopId::new("L2");

    // (reuse, re-run) outcomes of the checks below.
    let (mut hits, mut misses) = (0, 0);
    let mut check = |registry: &ReuseRegistry, label: &str, data: &[Dad], ind: &[Dad]| {
        let reuse = registry.check(&LoopId::new("L2"), data, ind).can_reuse();
        let (verdict, count) = if reuse {
            ("REUSE saved schedules", &mut hits)
        } else {
            ("RE-RUN inspector", &mut misses)
        };
        *count += 1;
        println!("{label:<55} -> {verdict}");
        reuse
    };

    println!("nmod = {}\n", registry.nmod());

    // First execution: nothing recorded yet.
    check(
        &registry,
        "first execution of L2",
        &[x_dad, y_dad],
        &[ind_dad],
    );
    registry.save_inspector(loop_id, [x_dad, y_dad], [ind_dad]);
    println!("  (inspector runs, results saved)\n");

    // Case 1: nothing changed.
    check(
        &registry,
        "second execution, nothing modified",
        &[x_dad, y_dad],
        &[ind_dad],
    );

    // Case 2: the loop writes y every sweep — y's DAD differs from the
    // indirection arrays' DAD, so the schedules stay valid.
    registry.record_write(&y_dad);
    check(
        &registry,
        "after the executor wrote y (a data array)",
        &[x_dad, y_dad],
        &[ind_dad],
    );

    // Case 3: an adaptive step rewrites the edge list (the indirection
    // array). nmod advances and last_mod(DAD(end_pt)) moves past the saved
    // stamp: conservative invalidation.
    registry.record_write(&ind_dad);
    let reused = check(
        &registry,
        "after the mesh adapted (end_pt arrays rewritten)",
        &[x_dad, y_dad],
        &[ind_dad],
    );
    assert!(!reused);
    registry.save_inspector(loop_id, [x_dad, y_dad], [ind_dad]);
    println!("  (inspector re-runs, new stamps recorded)\n");

    // Case 4: REDISTRIBUTE gives x and y a new irregular distribution — a
    // new DAD — so the next execution must re-inspect even though the
    // indirection arrays are untouched.
    let map: Vec<u32> = (0..nnodes).map(|i| (i % nprocs) as u32).collect();
    let irregular = Distribution::irregular_from_map(&map, nprocs);
    let x_new = Dad::of(&irregular);
    registry.record_remap(&x_dad, &x_new);
    check(
        &registry,
        "after REDISTRIBUTE remapped x to an irregular distribution",
        &[x_new, y_dad],
        &[ind_dad],
    );

    println!(
        "\nnmod = {}, reuse check outcomes: {hits} reuse / {misses} re-run",
        registry.nmod()
    );
}
