//! Integration tests for the mini-language executor covering the statement
//! forms and distribution kinds the unit tests do not reach: MAX / MIN
//! reductions, assignments through indirection (loop L1 of the paper's
//! Figure 1), CYCLIC distributions, map-array (`DISTRIBUTE irreg(map)`,
//! Figure 3) distributions, and multiple loops with independent reuse state.

use chaos_dmsim::collectives::charge_all_reduce_word;
use chaos_dmsim::{Machine, MachineConfig, PhaseKind};
use chaos_lang::{lower_program, parse_program, Executor, ProgramInputs};

fn run(src: &str, inputs: ProgramInputs, nprocs: usize) -> Executor {
    let program = lower_program(parse_program(src).expect("parse")).expect("lower");
    let mut exec = Executor::new(MachineConfig::ipsc860(nprocs), inputs);
    exec.run(&program).expect("run");
    exec
}

#[test]
fn figure1_loop_l1_assignment_through_indirection() {
    // y(ia(i)) = x(ib(i)) + x(ic(i)) — the paper's single-statement loop L1.
    let src = r#"
        REAL*8 x(n), y(n)
        INTEGER ia(m), ib(m), ic(m)
        DECOMPOSITION reg(n), reg2(m)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y WITH reg
        ALIGN ia, ib, ic WITH reg2
        CALL READ_DATA(x, y, ia, ib, ic)
        FORALL i = 1, m
          y(ia(i)) = x(ib(i)) + x(ic(i))
        END FORALL
    "#;
    let n = 24;
    let m = 12;
    // Distinct targets so the assignment has no write conflicts.
    let ia: Vec<u32> = (1..=m as u32).map(|i| i * 2).collect();
    let ib: Vec<u32> = (1..=m as u32).collect();
    let ic: Vec<u32> = (1..=m as u32).map(|i| ((i + 5) % n as u32) + 1).collect();
    let x: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
    let inputs = ProgramInputs::new()
        .scalar("n", n)
        .scalar("m", m)
        .real("x", x.clone())
        .real("y", vec![-1.0; n])
        .int("ia", ia.clone())
        .int("ib", ib.clone())
        .int("ic", ic.clone());
    let exec = run(src, inputs, 4);
    let y = exec.real_global("y").unwrap();
    let mut expected = vec![-1.0; n];
    for i in 0..m {
        expected[ia[i] as usize - 1] = x[ib[i] as usize - 1] + x[ic[i] as usize - 1];
    }
    assert_eq!(y, expected);
}

#[test]
fn max_and_min_reductions() {
    let src = r#"
        REAL*8 x(n), hi(n), lo(n)
        INTEGER e1(m), e2(m)
        DECOMPOSITION reg(n), reg2(m)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, hi, lo WITH reg
        ALIGN e1, e2 WITH reg2
        CALL READ_DATA(x, hi, lo, e1, e2)
        FORALL i = 1, m
          REDUCE(MAX, hi(e1(i)), x(e2(i)))
          REDUCE(MIN, lo(e1(i)), x(e2(i)))
        END FORALL
    "#;
    let n = 16;
    // A small irregular edge set (1-based), deliberately hitting remote nodes.
    let e1: Vec<u32> = vec![1, 1, 5, 9, 9, 13, 2, 2];
    let e2: Vec<u32> = vec![16, 8, 12, 3, 4, 1, 15, 14];
    let m = e1.len();
    let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64).collect();
    let inputs = ProgramInputs::new()
        .scalar("n", n)
        .scalar("m", m)
        .real("x", x.clone())
        .real("hi", vec![f64::NEG_INFINITY; n])
        .real("lo", vec![f64::INFINITY; n])
        .int("e1", e1.clone())
        .int("e2", e2.clone());
    let exec = run(src, inputs, 4);
    let hi = exec.real_global("hi").unwrap();
    let lo = exec.real_global("lo").unwrap();

    let mut expected_hi = vec![f64::NEG_INFINITY; n];
    let mut expected_lo = vec![f64::INFINITY; n];
    for i in 0..m {
        let t = e1[i] as usize - 1;
        let v = x[e2[i] as usize - 1];
        expected_hi[t] = expected_hi[t].max(v);
        expected_lo[t] = expected_lo[t].min(v);
    }
    assert_eq!(hi, expected_hi);
    assert_eq!(lo, expected_lo);
}

#[test]
fn cyclic_distribution_executes_correctly() {
    let src = r#"
        REAL*8 x(n), y(n)
        DECOMPOSITION reg(n)
        DISTRIBUTE reg(CYCLIC)
        ALIGN x, y WITH reg
        CALL READ_DATA(x, y)
        FORALL i = 1, n
          y(i) = x(i) * 3.0 - 1.0
        END FORALL
    "#;
    let n = 23;
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let inputs = ProgramInputs::new()
        .scalar("n", n)
        .real("x", x.clone())
        .real("y", vec![0.0; n]);
    let exec = run(src, inputs, 4);
    assert_eq!(exec.decomposition("reg").unwrap().kind_name(), "CYCLIC");
    let y = exec.real_global("y").unwrap();
    let expected: Vec<f64> = x.iter().map(|v| v * 3.0 - 1.0).collect();
    assert_eq!(y, expected);
}

#[test]
fn figure3_map_array_distribution() {
    // Figure 3 of the paper: an irregular distribution specified directly by
    // a map array ("when map(i) is set equal to p, element i ... is assigned
    // to processor p").
    let src = r#"
        REAL*8 x(n), y(n)
        INTEGER map(n), e1(m), e2(m)
        DECOMPOSITION reg(n), regmap(n), reg2(m)
        DISTRIBUTE regmap(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN map WITH regmap
        ALIGN e1, e2 WITH reg2
        CALL READ_DATA(map)
        DISTRIBUTE reg(map)
        ALIGN x, y WITH reg
        CALL READ_DATA(x, y, e1, e2)
        FORALL i = 1, m
          REDUCE(ADD, y(e1(i)), x(e2(i)))
        END FORALL
    "#;
    let n = 20;
    let map: Vec<u32> = (0..n).map(|i| ((i * 3) % 4) as u32).collect(); // 0-based owners
    let e1: Vec<u32> = (1..=10).collect();
    let e2: Vec<u32> = (11..=20).collect();
    let m = e1.len();
    let x: Vec<f64> = (0..n).map(|i| (i + 1) as f64).collect();
    let inputs = ProgramInputs::new()
        .scalar("n", n)
        .scalar("m", m)
        .real("x", x.clone())
        .real("y", vec![0.0; n])
        .int("map", map)
        .int("e1", e1.clone())
        .int("e2", e2.clone());
    let exec = run(src, inputs, 4);
    assert_eq!(exec.decomposition("reg").unwrap().kind_name(), "IRREGULAR");
    let y = exec.real_global("y").unwrap();
    let mut expected = vec![0.0; n];
    for i in 0..m {
        expected[e1[i] as usize - 1] += x[e2[i] as usize - 1];
    }
    assert_eq!(y, expected);
}

#[test]
fn multiple_loops_have_independent_reuse_state() {
    let src = r#"
        REAL*8 x(n), y(n), z(n)
        INTEGER e1(m), e2(m)
        DECOMPOSITION reg(n), reg2(m)
        DISTRIBUTE reg(BLOCK)
        DISTRIBUTE reg2(BLOCK)
        ALIGN x, y, z WITH reg
        ALIGN e1, e2 WITH reg2
        CALL READ_DATA(x, y, z, e1, e2)
        FORALL i = 1, m
          REDUCE(ADD, y(e1(i)), x(e2(i)))
        END FORALL
        FORALL i = 1, m
          REDUCE(ADD, z(e2(i)), x(e1(i)))
        END FORALL
    "#;
    let n = 30;
    let e1: Vec<u32> = (1..=15).collect();
    let e2: Vec<u32> = (16..=30).collect();
    let m = e1.len();
    let inputs = ProgramInputs::new()
        .scalar("n", n)
        .scalar("m", m)
        .real("x", (0..n).map(|i| i as f64).collect())
        .real("y", vec![0.0; n])
        .real("z", vec![0.0; n])
        .int("e1", e1)
        .int("e2", e2);
    let program = lower_program(parse_program(src).unwrap()).unwrap();
    let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs);
    exec.run(&program).unwrap();
    // Both loops ran their own inspector once.
    assert_eq!(exec.report().inspector_runs, 2);
    assert_eq!(exec.report().loop_sweeps, 2);
    // Re-running each loop reuses its own saved schedules.
    exec.execute_loop(&program, "L1").unwrap();
    exec.execute_loop(&program, "L2").unwrap();
    assert_eq!(exec.report().inspector_runs, 2);
    assert_eq!(exec.report().reuse_hits, 2);
}

/// A FORALL touching two decompositions: the inspector issues a *single*
/// request exchange for both groups' schedules instead of one per schedule,
/// with fewer messages than the schedules' own — the difference booked in
/// the savings ledger.
#[test]
fn a_loop_over_two_decompositions_issues_one_folded_request_exchange() {
    // x lives on rega and the written y on regb, so the loop has two
    // decomposition groups. Every iteration references one element from
    // each half of x; the tie places all of them on rank 0, which then
    // needs x and y ghosts from rank 1 — both groups' requests travel over
    // the one (owner 1 → requester 0) pair.
    let src = |regb_format: &str| {
        format!(
            r#"
        REAL*8 x(n), y(n)
        INTEGER ia(m), ib(m)
        DECOMPOSITION rega(n), regb(n), regc(m)
        DISTRIBUTE rega(BLOCK)
        DISTRIBUTE regb({regb_format})
        DISTRIBUTE regc(BLOCK)
        ALIGN x WITH rega
        ALIGN y WITH regb
        ALIGN ia, ib WITH regc
        CALL READ_DATA(x, y, ia, ib)
        FORALL i = 1, m
          y(i) = x(ia(i)) + x(ib(i))
        END FORALL
    "#
        )
    };
    // m != n so the indirection arrays' decomposition has a distinct DAD
    // (with equal sizes the conservative DAD tracking would invalidate the
    // schedule on every write of y).
    let n = 8usize;
    let m = 6usize;
    // Each iteration pairs one upper-half and one lower-half element.
    let ia: Vec<u32> = (0..m as u32).map(|i| i % 4 + 5).collect(); // globals 4..7
    let ib: Vec<u32> = (0..m as u32).map(|i| i % 4 + 1).collect(); // globals 0..3
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 2.0).collect();
    let inputs = ProgramInputs::new()
        .scalar("n", n)
        .scalar("m", m)
        .real("x", x.clone())
        .real("y", vec![0.0; n])
        .int("ia", ia.clone())
        .int("ib", ib.clone());

    // (regb's format, request words sent, request words saved). Each
    // schedule alone would send one message: x's 4 ghosts, and y's 2
    // (BLOCK: y(5), y(6)) or 3 (CYCLIC: y(2), y(4), y(6)).
    // * BLOCK: both groups share one distribution, hence one resident
    //   region; y's ghosts are x's (same owner offsets), so only x's 4 are
    //   requested.
    // * CYCLIC: two regions, nothing shared; the 4 + 3 offsets fold into
    //   one message with a length tag per segment.
    for (regb_format, words, saved_words) in [("BLOCK", 4, 2), ("CYCLIC", 4 + 3 + 2, 0)] {
        let program = lower_program(parse_program(&src(regb_format)).unwrap()).unwrap();
        let mut exec = Executor::new(MachineConfig::ipsc860(2), inputs.clone());
        exec.run(&program).unwrap();

        let word_bytes = exec.machine().config().word_bytes;
        let stats = exec.machine().stats();
        // The inspector's traffic is the reuse vote's all-reduce plus the
        // request exchange (no translation table: both formats are regular).
        let mut vote = Machine::new(MachineConfig::ipsc860(2));
        charge_all_reduce_word(&mut vote);
        let (inspector, vote) = (
            stats.totals_for(PhaseKind::Inspector),
            vote.stats().grand_totals(),
        );
        assert_eq!(
            inspector.phases - vote.phases,
            1,
            "{regb_format}: one request exchange"
        );
        assert_eq!(inspector.messages - vote.messages, 1, "{regb_format}");
        assert_eq!(
            inspector.bytes - vote.bytes,
            words * word_bytes,
            "{regb_format}"
        );
        let saved = stats.saved_labelled("incremental:schedule-build");
        assert_eq!(saved.messages, 1, "{regb_format}: one message, not two");
        assert_eq!(saved.bytes, saved_words * word_bytes, "{regb_format}");

        // Sequential reference (iterations cover y[0..m]; the tail stays 0).
        let y = exec.real_global("y").unwrap();
        for (i, v) in y.iter().enumerate() {
            let expect = if i < m {
                x[ia[i] as usize - 1] + x[ib[i] as usize - 1]
            } else {
                0.0
            };
            assert!((v - expect).abs() < 1e-12, "y[{i}]: {v} vs {expect}");
        }
        exec.execute_loop(&program, "L1").unwrap();
        assert_eq!(exec.report().reuse_hits, 1);
    }
}

/// Two FORALLs read `x` over the same node distribution with overlapping
/// ghost sets (a chain-edge loop, then a wider face loop). The second
/// loop's inspector requests only the ghosts the first loop didn't, and its
/// steady-state sweeps gather only that difference — every avoided message
/// and byte is booked in the machine's `saved` ledger. Two invariants pin
/// that without a second execution path: a loop's result does not depend on
/// which loops ran before it, and traffic + saved is additive over loops.
#[test]
fn incremental_schedules_fetch_only_the_ghosts_earlier_loops_didnt() {
    let preamble = r#"
        REAL*8 x(nnode), y(nnode), z(nnode)
        INTEGER e1(nedge), e2(nedge), f1(nface), f2(nface)
        DECOMPOSITION regn(nnode), rege(nedge), regf(nface)
        DISTRIBUTE regn(BLOCK)
        DISTRIBUTE rege(BLOCK)
        DISTRIBUTE regf(BLOCK)
        ALIGN x, y, z WITH regn
        ALIGN e1, e2 WITH rege
        ALIGN f1, f2 WITH regf
        CALL READ_DATA(x, y, z, e1, e2, f1, f2)
    "#;
    let edge_loop = r#"
        FORALL i = 1, nedge
          REDUCE(ADD, y(e1(i)), x(e1(i)) * x(e2(i)))
        END FORALL
    "#;
    let face_loop = r#"
        FORALL j = 1, nface
          REDUCE(ADD, z(f1(j)), x(f1(j)) + x(f2(j)))
        END FORALL
    "#;
    let nnode = 32usize;
    let nedge = nnode - 1; // chain: (i, i+1)
    let nface = nnode - 2;
    let e1: Vec<u32> = (1..nnode as u32).collect();
    let e2: Vec<u32> = (2..=nnode as u32).collect();
    // Lower-half faces repeat the chain pairs exactly (their ghosts are
    // fully resident after L1 — whole request messages disappear); the
    // upper half uses the wider (i, i+2) stencil (partially resident —
    // only the new ghosts are fetched).
    let f1: Vec<u32> = (1..(nnode - 1) as u32).collect();
    let f2: Vec<u32> = (0..nface as u32)
        .map(|k| if k < nface as u32 / 2 { k + 2 } else { k + 3 })
        .collect();
    let x: Vec<f64> = (0..nnode).map(|i| (i as f64 * 0.41).sin() + 2.0).collect();
    let inputs = ProgramInputs::new()
        .scalar("nnode", nnode)
        .scalar("nedge", nedge)
        .scalar("nface", nface)
        .real("x", x)
        .real("y", vec![0.0; nnode])
        .real("z", vec![0.0; nnode])
        .int("e1", e1)
        .int("e2", e2)
        .int("f1", f1)
        .int("f2", f2);
    let sweeps = 5;

    // Run the preamble plus `loops`, then `sweeps` more rounds of them.
    let drive = |loops: &[&str]| -> Executor {
        let src = format!("{preamble}{}", loops.concat());
        let program = lower_program(parse_program(&src).expect("parse")).expect("lower");
        let mut exec = Executor::new(MachineConfig::ipsc860(4), inputs.clone());
        exec.run(&program).expect("run");
        for _ in 0..sweeps {
            for l in 1..=loops.len() {
                exec.execute_loop(&program, &format!("L{l}"))
                    .expect("sweep");
            }
        }
        exec
    };
    let both = drive(&[edge_loop, face_loop]);
    let only_edges = drive(&[edge_loop]);
    let only_faces = drive(&[face_loop]);
    let no_loops = drive(&[]);

    // The second loop's binding found resident ghosts; a loop on its own
    // has nothing to find.
    assert_eq!(both.report().incremental_bindings, 1);
    assert_eq!(only_edges.report().incremental_bindings, 0);
    assert_eq!(only_faces.report().incremental_bindings, 0);

    // Savings are booked under both ledgers: the inspector's request
    // exchange and every steady-state gather of the second loop.
    let stats = both.machine().stats();
    let sched_saved = stats.saved_labelled("incremental:schedule-build");
    let gather_saved = stats.saved_labelled("incremental:gather");
    assert!(sched_saved.messages > 0, "request-exchange messages saved");
    assert!(gather_saved.messages > 0, "gather messages saved");
    assert!(gather_saved.bytes > 0, "gather volume saved");
    // One saving per steady-state L2 gather: the program's own sweep plus
    // the extra ones.
    assert_eq!(gather_saved.phases, sweeps + 1);

    // Exact accounting: what a run sent plus what it booked as saved is
    // what its loops cost on their own (each loop here has one group, so no
    // tag words enter the folded exchange).
    let sent_plus_saved = |exec: &Executor| {
        let stats = exec.machine().stats();
        let sent = stats.grand_totals();
        stats
            .saved_totals()
            .filter(|(label, _)| label.starts_with("incremental:"))
            .fold((sent.messages, sent.bytes), |(m, b), (_, s)| {
                (m + s.messages, b + s.bytes)
            })
    };
    let (two, a, b, p) = (
        sent_plus_saved(&both),
        sent_plus_saved(&only_edges),
        sent_plus_saved(&only_faces),
        sent_plus_saved(&no_loops),
    );
    assert_eq!(two.0 + p.0, a.0 + b.0, "message ledger exact");
    assert_eq!(two.1 + p.1, a.1 + b.1, "byte ledger exact");
    let sent = stats.grand_totals();
    assert!(sent.messages < two.0 && sent.bytes < two.1, "and non-empty");

    // A loop's result does not depend on which loops ran before it.
    let bits = |exec: &Executor, name: &str| -> Vec<u64> {
        let values = exec.real_global(name).unwrap();
        values.iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&both, "y"), bits(&only_edges, "y"), "y diverged");
    assert_eq!(bits(&both, "z"), bits(&only_faces, "z"), "z diverged");
    assert_eq!(bits(&both, "x"), bits(&no_loops, "x"), "x diverged");
}
