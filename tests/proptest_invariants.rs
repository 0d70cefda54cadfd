//! Property-based tests on the core runtime invariants:
//!
//! * any map array yields a consistent translation table / distribution
//!   (owner+offset is a bijection onto the local index spaces),
//! * remapping between arbitrary distributions never changes array
//!   contents,
//! * the inspector's localized references always resolve to the value the
//!   global index would have produced,
//! * an executor sweep's scatter-add applies each off-processor
//!   contribution exactly once, and its gather and scatter match the seed's
//!   naive pipeline,
//! * partitioners always produce complete, in-range assignments and the
//!   schedule-reuse check is sound (a modified indirection array is never
//!   reported as reusable).

use chaos_repro::prelude::*;
use chaos_repro::runtime::{resolve_local, resolve_local_mut, Dad, Inspector, LoopId};
use proptest::prelude::*;

mod naive;
mod pipeline;
use pipeline::build_pattern;

/// Strategy: a processor count and a map array assigning each of `n`
/// elements to one of the processors.
fn map_strategy() -> impl Strategy<Value = (usize, Vec<u32>)> {
    (2usize..=8).prop_flat_map(|p| {
        (8usize..200)
            .prop_flat_map(move |n| (Just(p), proptest::collection::vec(0u32..p as u32, n)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn translation_table_is_a_bijection((p, map) in map_strategy()) {
        let dist = Distribution::irregular_from_map(&map, p);
        let mut seen = vec![vec![false; dist.len()]; p];
        for g in 0..map.len() {
            let (owner, offset) = dist.locate(g);
            prop_assert!(owner < p);
            prop_assert!(offset < dist.local_size(owner));
            prop_assert!(!seen[owner][offset], "two globals map to the same local slot");
            seen[owner][offset] = true;
        }
        let total: usize = (0..p).map(|q| dist.local_size(q)).sum();
        prop_assert_eq!(total, map.len());
    }

    #[test]
    fn remap_preserves_contents((p, map) in map_strategy()) {
        let n = map.len();
        let data: Vec<f64> = (0..n).map(|i| i as f64 * 1.5 - 3.0).collect();
        let mut machine = Machine::new(MachineConfig::unit(p));
        let mut arr = DistArray::from_global("a", Distribution::block(n, p), &data);
        chaos_repro::runtime::remap(&mut machine, &mut arr, Distribution::irregular_from_map(&map, p));
        prop_assert_eq!(arr.to_global(), data.clone());
        // And back to cyclic.
        chaos_repro::runtime::remap(&mut machine, &mut arr, Distribution::cyclic(n, p));
        prop_assert_eq!(arr.to_global(), data);
    }

    #[test]
    fn localized_references_resolve_to_global_values(
        (p, map) in map_strategy(),
        seed in 0u64..1000,
    ) {
        let n = map.len();
        let dist = Distribution::irregular_from_map(&map, p);
        let data: Vec<f64> = (0..n).map(|i| (i as f64) * 0.25 + 1.0).collect();
        let arr = DistArray::from_global("x", dist.clone(), &data);
        // Random access pattern derived from the seed.
        let pattern = build_pattern(p, n, seed, 10, 1);
        let mut machine = Machine::new(MachineConfig::unit(p));
        let result = Inspector.localize(&mut machine, &dist, &pattern);
        let mut areas = SweepAreas::default();
        let mut y = arr.clone();
        sweep(&mut machine, &result.schedule, &arr, &mut y, &mut areas, &[], |_, _, _| {});
        #[allow(clippy::needless_range_loop)]
        for q in 0..p {
            let ghosts = &areas.area(q).ghosts;
            for (k, &g) in pattern.refs[q].iter().enumerate() {
                let resolved = *resolve_local(result.localized[q][k], arr.local(q), ghosts);
                prop_assert_eq!(resolved, data[g as usize]);
            }
        }
    }

    #[test]
    fn gather_scatter_applies_each_contribution_once(
        (p, map) in map_strategy(),
    ) {
        let n = map.len();
        let dist = Distribution::irregular_from_map(&map, p);
        // Every processor references every element once -> after a sweep's
        // scatter-add of all-ones ghost contributions plus local increments,
        // each element receives exactly (p) increments in total.
        let mut pattern = AccessPattern::new(p);
        for q in 0..p {
            pattern.refs[q] = (0..n as u32).collect();
        }
        let mut machine = Machine::new(MachineConfig::unit(p));
        let result = Inspector.localize(&mut machine, &dist, &pattern);
        let mut y = DistArray::from_global("y", dist.clone(), &vec![0.0; n]);
        // Local references incremented directly, ghost references through
        // the contribution buffers.
        let x = y.clone();
        sweep(
            &mut machine,
            &result.schedule,
            &x,
            &mut y,
            &mut SweepAreas::default(),
            &[ScatterKind::Add],
            |ctx, y_local, area| {
                for &r in &result.localized[ctx.rank()] {
                    *resolve_local_mut(r, y_local, &mut area.contrib[0]) += 1.0;
                }
            },
        );
        let got = y.to_global();
        for (i, v) in got.iter().enumerate() {
            prop_assert!((v - p as f64).abs() < 1e-9, "element {i} got {v}, expected {p}");
        }
    }

    #[test]
    fn partitioners_always_cover_all_vertices(
        nvertices in 16usize..300,
        nparts in 2usize..9,
        seed in 0u64..500,
    ) {
        use chaos_repro::geocol::GeoColBuilder;
        // Random geometric graph.
        let mut state = seed.wrapping_add(7);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / u32::MAX as f64).fract().abs()
        };
        let xs: Vec<f64> = (0..nvertices).map(|_| next()).collect();
        let ys: Vec<f64> = (0..nvertices).map(|_| next()).collect();
        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        for i in 0..nvertices as u32 {
            let j = (i + 1) % nvertices as u32;
            e1.push(i);
            e2.push(j);
        }
        let g = GeoColBuilder::new(nvertices)
            .geometry(vec![xs, ys])
            .link(e1, e2)
            .build()
            .unwrap();
        for p in chaos_repro::geocol::registered_partitioner_names() {
            let partitioner = chaos_repro::geocol::partitioner_by_name(p).unwrap();
            let part = partitioner.partition(&g, nparts);
            prop_assert_eq!(part.len(), nvertices);
            prop_assert_eq!(part.nparts(), nparts);
            prop_assert_eq!(part.part_sizes().iter().sum::<usize>(), nvertices);
        }
    }

    #[test]
    fn csr_pipeline_matches_naive_reference(
        (p, map) in map_strategy(),
        seed in 0u64..1000,
    ) {
        // The flat CSR schedule + hash-free localize must produce
        // byte-identical gather/scatter results AND identical message /
        // volume accounting versus the retained naive reference
        // implementation (tests/naive).
        let n = map.len();
        let dist = Distribution::irregular_from_map(&map, p);
        let data: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 7.0).collect();
        let arr = DistArray::from_global("x", dist.clone(), &data);
        let pattern = build_pattern(p, n, seed, 12, 3);

        let cfg = || MachineConfig::unit(p);
        let mut m_csr = Machine::new(cfg());
        let mut m_naive = Machine::new(cfg());

        let csr = Inspector.localize(&mut m_csr, &dist, &pattern);
        let reference = naive::localize(&mut m_naive, &dist, &pattern);

        // Identical localization and ghost numbering.
        prop_assert_eq!(&csr.localized, &reference.localized);
        prop_assert_eq!(&csr.ghost_counts, &reference.ghost_counts);
        prop_assert_eq!(csr.schedule.message_count(), reference.schedule.message_count());
        for q in 0..p {
            let csr_sources: Vec<(u32, u32)> = csr.schedule.ghost_sources(q).collect();
            prop_assert_eq!(&csr_sources, &reference.schedule.ghost_sources[q]);
        }

        // One executor sweep that scatter-adds the ghosts it gathered,
        // against the naive gather, then scatter-add of the gathered ghosts:
        // byte-identical ghosts and results.
        let mut y_csr = DistArray::from_global("y", dist.clone(), &vec![1.0; n]);
        let mut y_naive = y_csr.clone();
        let mut areas = SweepAreas::default();
        sweep(
            &mut m_csr,
            &csr.schedule,
            &arr,
            &mut y_csr,
            &mut areas,
            &[ScatterKind::Add],
            |_, _, area| area.contrib[0].copy_from_slice(&area.ghosts),
        );
        let g_naive = naive::gather(&mut m_naive, &reference.schedule, &arr);
        for (q, naive_ghosts) in g_naive.iter().enumerate() {
            prop_assert_eq!(&areas.area(q).ghosts, naive_ghosts);
        }
        naive::scatter_add(&mut m_naive, &reference.schedule, &mut y_naive, &g_naive);
        prop_assert_eq!(y_csr.to_global(), y_naive.to_global());

        // Identical message / volume accounting for the whole pipeline
        // (inspector + sweep against inspector + gather + scatter), and
        // matching modeled clocks.
        let t_csr = m_csr.stats().grand_totals();
        let t_naive = m_naive.stats().grand_totals();
        prop_assert_eq!(t_csr.messages, t_naive.messages);
        prop_assert_eq!(t_csr.bytes, t_naive.bytes);
        prop_assert_eq!(t_csr.phases, t_naive.phases);
        let e_csr = m_csr.elapsed();
        let e_naive = m_naive.elapsed();
        for q in 0..p {
            prop_assert!(
                (e_csr.per_proc[q] - e_naive.per_proc[q]).abs() <= 1e-12 * e_naive.per_proc[q].abs().max(1.0),
                "proc {} modeled time diverged: {} vs {}", q, e_csr.per_proc[q], e_naive.per_proc[q]
            );
        }
    }

    #[test]
    fn reuse_check_is_conservative(
        writes in proptest::collection::vec(0usize..3, 0..12),
    ) {
        // Apply a random sequence of writes to {data array, indirection
        // array, unrelated array}; the check may only report "reuse" if no
        // indirection-array write happened since the last save.
        let mut registry = ReuseRegistry::new();
        let data = Dad::of(&Distribution::block(100, 4));
        let ind = Dad::of(&Distribution::block(333, 4));
        let unrelated = Dad::of(&Distribution::cyclic(55, 4));
        let id = LoopId::new("L");
        registry.save_inspector(id, [data], [ind]);
        let mut ind_written = false;
        for w in writes {
            match w {
                0 => registry.record_write(&data),
                1 => {
                    registry.record_write(&ind);
                    ind_written = true;
                }
                _ => registry.record_write(&unrelated),
            }
        }
        let decision = registry.check(&id, &[data], &[ind]);
        if ind_written {
            prop_assert!(!decision.can_reuse(), "reuse allowed despite indirection write");
        } else {
            prop_assert!(decision.can_reuse(), "reuse denied although nothing relevant changed");
        }
    }
}

/// The identifiers a mutated program may swap in: every name the
/// compiler-generated templates use, plus the partitioner names.
const TEMPLATE_NAMES: [&str; 16] = [
    "x", "y", "xc", "yc", "zc", "end_pt1", "end_pt2", "reg", "reg2", "nnode", "nedge", "distfmt",
    "G", "i", "RCB", "RSB",
];

/// Stray punctuation a mutation may insert.
const STRAY: [&str; 9] = ["(", ")", ",", "=", "*", "+", "-", ":", "$"];

/// Apply one mutation to `text`: `kind` picks drop, duplicate or swap a
/// line, swap an identifier, swap a digit or insert stray punctuation;
/// `a` and `b` pick where and what (reduced modulo what there is to pick).
fn mutate(text: &str, (kind, a, b): (usize, usize, usize)) -> String {
    if kind == 4 {
        let digits: Vec<usize> = text
            .match_indices(|c: char| c.is_ascii_digit())
            .map(|(at, _)| at)
            .collect();
        let mut text = text.to_string();
        if let Some(&at) = digits.get(b % digits.len().max(1)) {
            text.replace_range(at..at + 1, &(a % 10).to_string());
        }
        return text;
    }
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let n = lines.len();
    let line = &mut lines[a % n];
    match kind {
        0 => {
            lines.remove(a % n);
        }
        1 => {
            let copy = line.clone();
            lines.insert(a % n, copy);
        }
        2 => lines.swap(a % n, b % n),
        3 => {
            let is_word = |c: char| c.is_ascii_alphanumeric() || c == '_';
            let starts: Vec<usize> = line
                .char_indices()
                .filter(|&(at, c)| c.is_ascii_alphabetic() && !line[..at].ends_with(is_word))
                .map(|(at, _)| at)
                .collect();
            if let Some(&start) = starts.get(b % starts.len().max(1)) {
                let end = line[start..]
                    .find(|c| !is_word(c))
                    .map_or(line.len(), |len| start + len);
                line.replace_range(start..end, TEMPLATE_NAMES[a / n % TEMPLATE_NAMES.len()]);
            }
        }
        _ => line.insert_str(b % (line.len() + 1), STRAY[a % STRAY.len()]),
    }
    lines.join("\n") + "\n"
}

/// Make the template's inputs hostile: `kind` 0 leaves them alone, 1 and
/// 2 set one indirection entry to 0 or past its extent, 3 and 4 bind an
/// `nnode` or `nedge` that disagrees with the data.
fn hostile_inputs(mut inputs: ProgramInputs, (kind, a): (usize, usize)) -> ProgramInputs {
    let nnode = inputs.scalars["nnode"];
    let array = if a % 2 == 0 { "end_pt1" } else { "end_pt2" };
    match kind {
        1 | 2 => {
            let entries = inputs.int_arrays.get_mut(array).unwrap();
            let at = a % entries.len();
            entries[at] = if kind == 1 {
                0
            } else {
                (nnode + 1 + a % 3) as u32
            };
        }
        3 | 4 => {
            let name = if kind == 3 { "nnode" } else { "nedge" };
            let value = inputs.scalars[name];
            let off = 1 + a % 3;
            let value = if a % 2 == 0 {
                value + off
            } else {
                value.saturating_sub(off)
            };
            inputs.scalars.insert(name.to_string(), value);
        }
        _ => {}
    }
    inputs
}

/// Parse, lower and run `text` over `inputs` on `Machine` and on a 2-lane
/// pool. With no fault plan and no barrier deadline installed, a
/// `LangError::Phase` can only be a kernel panic the recovery path caught,
/// so it counts as a panic here.
fn run_hostile(text: &str, inputs: &ProgramInputs, nprocs: usize) -> Result<(), String> {
    use chaos_repro::lang::LangError;
    let run = || -> Result<(), LangError> {
        let cp = lower_program(parse_program(text)?)?;
        let config = || MachineConfig::ipsc860(nprocs);
        Executor::new(config(), inputs.clone()).run(&cp)?;
        Executor::new_pooled_with_workers(config(), 2, inputs.clone()).run(&cp)
    };
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(Err(LangError::Phase(err))) => Err(format!("a caught panic: {err}")),
        Ok(_) => Ok(()),
        Err(_) => Err("a panic".to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Property: mutated compiler-generated program text over hostile
    /// inputs — out-of-range indirection entries, size scalars that
    /// disagree with the data — ends in `Ok` or a typed `LangError` on
    /// both engines, never in a panic.
    #[test]
    fn hostile_program_text_reaches_a_typed_error(
        method in 0usize..3,
        mutations in collection::vec((0usize..6, 0usize..10_000, 0usize..10_000), 0..3),
        hostile in (0usize..5, 0usize..10_000),
        nnodes in 24usize..64,
        log_nprocs in 0u32..4,
    ) {
        use chaos_bench::compilergen::{program_inputs, program_text};
        use chaos_bench::experiment::Method;
        use chaos_bench::workload::mesh_workload;
        let method = [Method::Block, Method::Rcb, Method::Rsb][method];
        let text = mutations.iter().fold(program_text(method), |text, &m| mutate(&text, m));
        let inputs = program_inputs(&mesh_workload(MeshConfig::tiny(nnodes)));
        let inputs = hostile_inputs(inputs, hostile);
        let nprocs = 1 << log_nprocs;
        let outcome = run_hostile(&text, &inputs, nprocs);
        prop_assert!(
            outcome.is_ok(),
            "{} on {nprocs} ranks, hostile inputs {hostile:?}, program:\n{text}",
            outcome.unwrap_err()
        );
    }
}
