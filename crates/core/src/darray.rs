//! Distributed arrays: the runtime representation of a Fortran D array
//! `ALIGN`ed to a distribution.
//!
//! A `DistArray<T>` owns one local segment per processor (the simulator
//! shares an address space, so "per processor" is an index into a `Vec` of
//! segments). Elements are addressed either *globally* (for convenience,
//! tests and workload generation) or by `(processor, local offset)` — the
//! form the executor uses after the inspector has translated indices.

use crate::dad::Dad;
use crate::dist::Distribution;

/// A distributed array of `T`.
#[derive(Debug, Clone)]
pub struct DistArray<T> {
    name: String,
    dist: Distribution,
    local: Vec<Vec<T>>,
}

impl<T: Clone + Default> DistArray<T> {
    /// Create an array filled with `T::default()`.
    pub fn new(name: &str, dist: Distribution) -> Self {
        let local = (0..dist.nprocs())
            .map(|p| vec![T::default(); dist.local_size(p)])
            .collect();
        DistArray {
            name: name.to_string(),
            dist,
            local,
        }
    }

    /// Create an array by scattering a global vector according to `dist`.
    ///
    /// A BLOCK array's shards are consecutive runs of the global vector in
    /// rank order, so each is one slice copy; CYCLIC and irregular arrays
    /// place element by element.
    ///
    /// # Panics
    /// Panics if `global.len() != dist.len()`.
    pub fn from_global(name: &str, dist: Distribution, global: &[T]) -> Self {
        assert_eq!(
            global.len(),
            dist.len(),
            "global data length does not match the distribution"
        );
        let mut arr = Self::new(name, dist);
        if let Distribution::Block { .. } = arr.dist {
            let mut rest = global;
            for shard in &mut arr.local {
                let (run, tail) = rest.split_at(shard.len());
                shard.clone_from_slice(run);
                rest = tail;
            }
        } else {
            for (g, v) in global.iter().enumerate() {
                let (p, off) = arr.dist.locate(g);
                arr.local[p][off] = v.clone();
            }
        }
        arr
    }

    /// Gather the array into one global vector, in global index order.
    ///
    /// The simulator shares one address space, so the driver reads whole
    /// arrays this way where the paper's processors would each scan their
    /// own shard: `READ_DATA`'s input is scattered by [`Self::from_global`],
    /// and `CONSTRUCT`'s sections and the lang inspector's indirection
    /// arrays are gathered here, as are the values a caller reads back. A
    /// BLOCK array is its shards end to end, one slice copy each; CYCLIC
    /// and irregular arrays are read element by element.
    pub fn to_global(&self) -> Vec<T> {
        let mut out = Vec::new();
        self.to_global_into(&mut out);
        out
    }

    /// [`Self::to_global`] into `out`, which is cleared first: a reader
    /// that gathers the array again refills the same buffer.
    pub fn to_global_into(&self, out: &mut Vec<T>) {
        out.clear();
        if let Distribution::Block { .. } = self.dist {
            out.reserve_exact(self.dist.len());
            for shard in &self.local {
                out.extend_from_slice(shard);
            }
            return;
        }
        out.resize(self.dist.len(), T::default());
        for (g, slot) in out.iter_mut().enumerate() {
            let (p, off) = self.dist.locate(g);
            *slot = self.local[p][off].clone();
        }
    }
}

impl<T> DistArray<T> {
    /// The array's name (used in diagnostics and the language front end).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Global length.
    pub fn len(&self) -> usize {
        self.dist.len()
    }

    /// True when the global length is zero.
    pub fn is_empty(&self) -> bool {
        self.dist.is_empty()
    }

    /// The distribution the array is aligned to.
    pub fn dist(&self) -> &Distribution {
        &self.dist
    }

    /// The array's current data access descriptor.
    pub fn dad(&self) -> Dad {
        Dad::of(&self.dist)
    }

    /// Local segment of processor `proc`.
    pub fn local(&self, proc: usize) -> &[T] {
        &self.local[proc]
    }

    /// Mutable local segment of processor `proc`.
    pub fn local_mut(&mut self, proc: usize) -> &mut [T] {
        &mut self.local[proc]
    }

    /// Borrow every processor's local segment at once.
    pub fn locals(&self) -> &[Vec<T>] {
        &self.local
    }

    /// Every rank's local segment, mutably: the state a sweep hands the engine.
    pub(crate) fn shards_mut(&mut self) -> &mut [Vec<T>] {
        &mut self.local
    }

    /// Independently borrowable per-processor shards, in rank order — the
    /// form the rank-parallel executor kernels consume: each rank's kernel
    /// receives exclusive access to its own segment, so the shards can be
    /// distributed over threads (see `chaos_dmsim::Backend`).
    pub fn par_shards_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        self.local.iter_mut().map(Vec::as_mut_slice)
    }

    /// Overwrite this array's element values with `src`'s, shard by shard,
    /// without touching the distribution.
    ///
    /// This is the checkpoint/rollback primitive: a checkpoint is a clone of
    /// the array, and refreshing or restoring it is values-only — in steady
    /// state (same shapes on both sides) `Vec::clone_from` reuses the
    /// existing shard capacity, so no heap allocation occurs.
    ///
    /// # Panics
    /// Panics if the two arrays have different shard counts or any shard
    /// pair differs in length (i.e. the arrays were built from different
    /// distributions, or one was remapped since the checkpoint was taken).
    pub fn copy_values_from(&mut self, src: &Self)
    where
        T: Clone,
    {
        assert_eq!(
            self.local.len(),
            src.local.len(),
            "copy_values_from: shard counts differ (array was redistributed)"
        );
        for (dst, s) in self.local.iter_mut().zip(src.local.iter()) {
            assert_eq!(
                dst.len(),
                s.len(),
                "copy_values_from: shard lengths differ (array was remapped)"
            );
            dst.clone_from(s);
        }
    }

    /// Replace the distribution and local segments wholesale (used by
    /// [`crate::remap::remap`]); the two must be consistent.
    pub(crate) fn replace_storage(&mut self, dist: Distribution, local: Vec<Vec<T>>) {
        debug_assert_eq!(dist.nprocs(), local.len());
        debug_assert_eq!(
            (0..dist.nprocs())
                .map(|p| dist.local_size(p))
                .collect::<Vec<_>>(),
            local.iter().map(Vec::len).collect::<Vec<_>>()
        );
        self.dist = dist;
        self.local = local;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_and_gather_roundtrip_block() {
        let data: Vec<f64> = (0..17).map(|i| i as f64).collect();
        let a = DistArray::from_global("x", Distribution::block(17, 4), &data);
        assert_eq!(a.to_global(), data);
        assert_eq!(a.local(0).len(), 5);
        assert_eq!(a.local(0), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn scatter_and_gather_roundtrip_irregular() {
        let map: Vec<u32> = (0..10).map(|i| (i % 3) as u32).collect();
        let data: Vec<i64> = (0..10).map(|i| 100 + i as i64).collect();
        let a = DistArray::from_global("y", Distribution::irregular_from_map(&map, 3), &data);
        assert_eq!(a.to_global(), data);
        assert_eq!(a.local(1), &[101, 104, 107]);
    }

    #[test]
    fn the_shard_walk_is_the_element_walk() {
        // BLOCK with a short last shard, with empty shards (n < p) and
        // empty, then CYCLIC and irregular: both directions equal a walk
        // that locates every element, and `locate` is `owner` and
        // `local_offset` together.
        let map: Vec<u32> = (0..23).map(|i| (i * 7 % 5) as u32).collect();
        for d in [
            Distribution::block(23, 4),
            Distribution::block(3, 8),
            Distribution::block(0, 4),
            Distribution::cyclic(23, 4),
            Distribution::irregular_from_map(&map, 5),
        ] {
            let what = format!("{} n={} p={}", d.kind_name(), d.len(), d.nprocs());
            let global: Vec<u64> = (0..d.len() as u64).map(|g| 1000 + g * g).collect();
            let mut shards: Vec<Vec<u64>> =
                (0..d.nprocs()).map(|p| vec![0; d.local_size(p)]).collect();
            for (g, &v) in global.iter().enumerate() {
                let (p, off) = d.locate(g);
                assert_eq!((p, off), (d.owner(g), d.local_offset(g)), "{what}: {g}");
                shards[p][off] = v;
            }
            let a = DistArray::from_global("a", d.clone(), &global);
            assert_eq!(a.locals(), &shards[..], "{what}: from_global");
            let walked: Vec<u64> = (0..d.len())
                .map(|g| {
                    let (p, off) = d.locate(g);
                    a.local(p)[off]
                })
                .collect();
            assert_eq!(a.to_global(), walked, "{what}: to_global");
            assert_eq!(walked, global, "{what}: round trip");
        }
    }

    #[test]
    fn dad_reflects_distribution() {
        let a: DistArray<f64> = DistArray::new("x", Distribution::block(10, 2));
        let b: DistArray<f64> = DistArray::new("y", Distribution::block(10, 2));
        assert_eq!(a.dad(), b.dad());
        assert_eq!(a.dad(), Dad::Block { n: 10, p: 2 });
    }

    #[test]
    #[should_panic(expected = "does not match the distribution")]
    fn from_global_length_mismatch_panics() {
        let _ = DistArray::from_global("x", Distribution::block(4, 2), &[1.0, 2.0]);
    }

    #[test]
    fn locals_cover_whole_array() {
        let a: DistArray<u32> = DistArray::new("x", Distribution::block(11, 4));
        let total: usize = a.locals().iter().map(Vec::len).sum();
        assert_eq!(total, 11);
        assert_eq!(a.len(), 11);
        assert!(!a.is_empty());
    }
}
