//! Array remapping: move distributed arrays from one distribution to
//! another (the runtime work behind the `REDISTRIBUTE` directive and
//! Figure 2's phase C).
//!
//! A [`RemapPlan`] is built once per (old, new) distribution pair: two
//! driver-side O(n) passes locate every element in both layouts and file
//! it, as an (old offset, new offset) move, under its (old owner, new
//! owner) pair, in one flat list of the array's length. Any number of
//! arrays on the old distribution then move through the plan, each as one
//! communication phase ([`Backend::run_phase`]): every old owner charges
//! one memory word per element that stays and, per rank it sends to, a
//! pack word, an unpack word and one point-to-point message; then every
//! new owner fills its new segment by reading each old owner's segment in
//! place (the simulator shares one address space, as the gather's unpack
//! does). The rank kernels are pure data movement and charging, O(n/P) per
//! rank, and the charges are the same on every engine, replayed in
//! ascending rank order. The paper's "Remap" table rows are exactly this
//! cost (for the data arrays plus the indirection arrays that follow the
//! loop iterations).

use crate::dad::Dad;
use crate::darray::DistArray;
use crate::dist::Distribution;
use chaos_dmsim::{Backend, RankCtx};

/// Where every element goes when an array moves from one distribution to
/// another: built once per (old, new) pair, then applied to each array that
/// makes the same move.
#[derive(Debug)]
pub struct RemapPlan {
    /// The DAD of the distribution the moved arrays leave.
    source: Dad,
    /// The distribution they arrive on.
    target: Distribution,
    /// The (old offset on `src`, new offset on `dst`) of every element, one
    /// list per (`src`, `dst`) pair in pair order `src * nprocs + dst`,
    /// each in global order; `src == dst` lists the elements that stay.
    moves: Vec<(u32, u32)>,
    /// `moves[starts[k]..starts[k + 1]]` is pair `k`'s list.
    starts: Vec<u32>,
}

impl RemapPlan {
    /// Locate every element of `source` in `target`: one pass counts each
    /// (old owner, new owner) pair's elements, a second files their offsets
    /// into one allocation of the array's length.
    ///
    /// # Panics
    /// Panics if the two distributions differ in global length or
    /// processor count.
    pub fn new(source: &Distribution, target: &Distribution) -> Self {
        assert_eq!(
            source.len(),
            target.len(),
            "remap cannot change the global array length"
        );
        assert_eq!(
            source.nprocs(),
            target.nprocs(),
            "remap cannot change the processor count"
        );
        let nprocs = source.nprocs();
        let pair = |g: usize| source.owner(g) * nprocs + target.owner(g);
        let mut starts = vec![0u32; nprocs * nprocs + 1];
        for g in 0..source.len() {
            starts[pair(g) + 1] += 1;
        }
        for k in 0..nprocs * nprocs {
            starts[k + 1] += starts[k];
        }
        let mut next = starts.clone();
        let mut moves = vec![(0, 0); source.len()];
        for g in 0..source.len() {
            let (old_p, old_off) = source.locate(g);
            let (new_p, new_off) = target.locate(g);
            let at = &mut next[old_p * nprocs + new_p];
            moves[*at as usize] = (old_off as u32, new_off as u32);
            *at += 1;
        }
        RemapPlan {
            source: Dad::of(source),
            target: target.clone(),
            moves,
            starts,
        }
    }

    /// The DAD of the distribution the plan moves arrays off.
    pub fn source(&self) -> Dad {
        self.source
    }

    /// The distribution the plan moves arrays onto.
    pub fn target(&self) -> &Distribution {
        &self.target
    }

    /// The moves from rank `src`'s old segment to rank `dst`'s new one.
    fn pair(&self, src: usize, dst: usize) -> &[(u32, u32)] {
        let k = src * self.target.nprocs() + dst;
        &self.moves[self.starts[k] as usize..self.starts[k + 1] as usize]
    }

    /// Elements that change owner under the plan.
    pub fn moved(&self) -> usize {
        let stay = (0..self.target.nprocs()).map(|p| self.pair(p, p).len());
        self.moves.len() - stay.sum::<usize>()
    }

    /// Move `array` onto the plan's target distribution, charging the data
    /// movement to `backend`'s machine as one communication phase. Returns
    /// the number of elements that changed owner.
    ///
    /// # Panics
    /// Panics if `array` is not on the plan's source distribution.
    pub fn apply<T, B>(&self, backend: &mut B, array: &mut DistArray<T>) -> usize
    where
        T: Clone + Default + Send + Sync,
        B: Backend,
    {
        assert_eq!(
            array.dad(),
            self.source,
            "array '{}' is not on the remap plan's source distribution",
            array.name()
        );
        let nprocs = self.target.nprocs();
        let mut new_local: Vec<Vec<T>> = (0..nprocs)
            .map(|p| vec![T::default(); self.target.local_size(p)])
            .collect();
        let old = &*array;
        backend.run_phase(
            |ctx: &mut RankCtx<'_>| {
                // Pack (as old owner): one memory word per element that
                // stays, then per destination the pack and unpack words and
                // one message.
                let src = ctx.rank();
                for _ in 0..self.pair(src, src).len() {
                    ctx.charge_memory(src, 1.0);
                }
                for dst in (0..nprocs).filter(|&dst| dst != src) {
                    let words = self.pair(src, dst).len();
                    if words > 0 {
                        ctx.charge_memory(src, words as f64);
                        ctx.charge_memory(dst, words as f64);
                        ctx.charge_p2p(src, dst, words);
                    }
                }
            },
            new_local.iter_mut(),
            |ctx: &mut RankCtx<'_>, segment: &mut Vec<T>| {
                // Unpack (as new owner): copy each old owner's elements for
                // this rank out of its old segment, read in place.
                let dst = ctx.rank();
                for src in 0..nprocs {
                    let local = old.local(src);
                    for &(old_off, new_off) in self.pair(src, dst) {
                        segment[new_off as usize] = local[old_off as usize].clone();
                    }
                }
            },
        );
        array.replace_storage(self.target.clone(), new_local);
        self.moved()
    }
}

/// Remap `array` in place to `new_dist`, charging the data movement to
/// `backend`'s machine: a [`RemapPlan`] built for this one array. Returns
/// the number of elements that changed owner.
///
/// # Panics
/// Panics if the new distribution has a different global length or processor
/// count than the old one.
pub fn remap<T, B>(backend: &mut B, array: &mut DistArray<T>, new_dist: Distribution) -> usize
where
    T: Clone + Default + Send + Sync,
    B: Backend,
{
    RemapPlan::new(array.dist(), &new_dist).apply(backend, array)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_dmsim::{Machine, MachineConfig, PooledBackend};

    #[test]
    fn remap_block_to_irregular_preserves_values() {
        let mut m = Machine::new(MachineConfig::unit(4));
        let data: Vec<f64> = (0..16).map(|i| i as f64 * 1.5).collect();
        let mut a = DistArray::from_global("x", Distribution::block(16, 4), &data);
        let map: Vec<u32> = (0..16).map(|i| ((i * 7) % 4) as u32).collect();
        let new_dist = Distribution::irregular_from_map(&map, 4);
        let moved = remap(&mut m, &mut a, new_dist);
        assert_eq!(a.to_global(), data, "values survive the remap");
        assert!(matches!(a.dad(), Dad::Irregular { .. }));
        assert!(moved > 0);
        assert!(m.stats().grand_totals().messages > 0);
    }

    #[test]
    fn identity_remap_moves_nothing() {
        let mut m = Machine::new(MachineConfig::unit(4));
        let data: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let mut a = DistArray::from_global("x", Distribution::block(16, 4), &data);
        let moved = remap(&mut m, &mut a, Distribution::block(16, 4));
        assert_eq!(moved, 0);
        assert_eq!(m.stats().grand_totals().messages, 0);
        assert_eq!(a.to_global(), data);
    }

    #[test]
    fn remap_back_and_forth_roundtrips() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let data: Vec<i64> = (0..9).map(|i| i as i64 * 3).collect();
        let mut a = DistArray::from_global("x", Distribution::block(9, 2), &data);
        remap(&mut m, &mut a, Distribution::cyclic(9, 2));
        assert_eq!(a.to_global(), data);
        assert_eq!(a.local(0).len(), 5);
        remap(&mut m, &mut a, Distribution::block(9, 2));
        assert_eq!(a.to_global(), data);
        assert_eq!(a.local(0), &[0, 3, 6, 9, 12]);
    }

    #[test]
    fn remap_changes_the_dad() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let mut a = DistArray::from_global(
            "x",
            Distribution::block(8, 2),
            &(0..8).map(|i| i as f64).collect::<Vec<_>>(),
        );
        let before = a.dad();
        let map: Vec<u32> = (0..8).map(|i| (i % 2) as u32).collect();
        remap(&mut m, &mut a, Distribution::irregular_from_map(&map, 2));
        assert_ne!(a.dad(), before);
    }

    /// Values, DADs, clock bits and communication totals of two arrays and
    /// the machine they were moved on.
    type Outcome = (
        Vec<u64>,
        Vec<u32>,
        Dad,
        Dad,
        Vec<u64>,
        chaos_dmsim::CommStats,
    );

    fn outcome<B: Backend>(backend: &B, a: &DistArray<f64>, b: &DistArray<u32>) -> Outcome {
        let machine = backend.machine();
        let clocks = machine.elapsed().per_proc;
        (
            a.to_global().iter().map(|v| v.to_bits()).collect(),
            b.to_global(),
            a.dad(),
            b.dad(),
            clocks.iter().map(|t| t.to_bits()).collect(),
            machine.stats().grand_totals(),
        )
    }

    #[test]
    fn one_plan_moves_many_arrays_as_one_remap_each_does() {
        // An f64 and a u32 array moved through one plan end exactly as two
        // `remap` calls leave them — values, DADs, clock bits, statistics —
        // on both engines, for BLOCK → irregular, irregular → CYCLIC and the
        // identity, which moves nothing and charges no message.
        let (n, p) = (29, 4);
        let map: Vec<u32> = (0..n).map(|i| ((i * 7 + 3) % p) as u32).collect();
        let irregular = Distribution::irregular_from_map(&map, p);
        let moves = [
            (Distribution::block(n, p), irregular.clone()),
            (irregular, Distribution::cyclic(n, p)),
            (Distribution::block(n, p), Distribution::block(n, p)),
        ];
        let reals: Vec<f64> = (0..n).map(|i| i as f64 * 0.25 - 3.0).collect();
        let ints: Vec<u32> = (0..n).map(|i| (i * i) as u32).collect();
        fn run<B: Backend>(
            mut backend: B,
            from: &Distribution,
            to: &Distribution,
            reals: &[f64],
            ints: &[u32],
            one_plan: bool,
        ) -> Outcome {
            let mut a = DistArray::from_global("a", from.clone(), reals);
            let mut b = DistArray::from_global("b", from.clone(), ints);
            let moved = if one_plan {
                let plan = RemapPlan::new(from, to);
                plan.apply(&mut backend, &mut a) + plan.apply(&mut backend, &mut b)
            } else {
                remap(&mut backend, &mut a, to.clone()) + remap(&mut backend, &mut b, to.clone())
            };
            assert_eq!(moved, 2 * RemapPlan::new(from, to).moved());
            assert_eq!(a.to_global(), reals);
            assert_eq!(b.to_global(), ints);
            outcome(&backend, &a, &b)
        }
        for (from, to) in &moves {
            let what = format!("{} -> {}", from.kind_name(), to.kind_name());
            let want = run(
                Machine::new(MachineConfig::ipsc860(p)),
                from,
                to,
                &reals,
                &ints,
                false,
            );
            assert_eq!((want.2, want.3), (Dad::of(to), Dad::of(to)), "{what}");
            let identity = Dad::of(from) == Dad::of(to);
            assert_eq!(want.5.messages == 0, identity, "{what}: messages");
            let pool = || PooledBackend::from_config_with_workers(MachineConfig::ipsc860(p), 2);
            for (engine, got) in [
                (
                    "machine",
                    run(
                        Machine::new(MachineConfig::ipsc860(p)),
                        from,
                        to,
                        &reals,
                        &ints,
                        true,
                    ),
                ),
                ("pool", run(pool(), from, to, &reals, &ints, true)),
                (
                    "pool, two remaps",
                    run(pool(), from, to, &reals, &ints, false),
                ),
            ] {
                assert_eq!(got, want, "{what} on the {engine}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "global array length")]
    fn remap_rejects_length_change() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let mut a: DistArray<f64> = DistArray::new("x", Distribution::block(8, 2));
        remap(&mut m, &mut a, Distribution::block(9, 2));
    }
}
