//! Array remapping: move a distributed array from one distribution to
//! another (the runtime work behind the `REDISTRIBUTE` directive and
//! Figure 2's phase C).
//!
//! A remap builds a one-shot communication schedule from the old
//! distribution to the new one, ships every element whose owner changes, and
//! rebuilds the array's local segments in the new layout. The paper's
//! "Remap" table rows are exactly this cost (for the data arrays plus the
//! indirection arrays that follow the loop iterations).
//!
//! The global data-movement pass runs **rank-parallel** through
//! [`Backend::run_exchange`] mailboxes: each old owner scans its own local
//! segment, posts `(new offset, value)` payloads for the elements whose
//! owner changes and charges the per-pair transfer volume from its side of
//! the exchange; each new owner copies the elements it keeps straight
//! across from its old segment and unpacks the movers from its inbox. On
//! the pooled engine REDISTRIBUTE therefore scales with
//! worker lanes, while the charge model — one memory word per element that stays,
//! a pack/unpack word plus one point-to-point message per moving pair — is
//! the same on every engine, replayed in ascending rank order.

use crate::darray::DistArray;
use crate::dist::Distribution;
use chaos_dmsim::{Backend, Inbox, Outbox, RankCtx};

/// Remap `array` in place to `new_dist`, charging the data movement to
/// `backend`'s machine. Returns the number of elements that changed owner.
///
/// Values are placed directly into the new layout (the simulator shares one
/// address space) through per-rank exchange mailboxes; the per-pair
/// transfer volume is tallied rank-locally in one counting pass and charged
/// through the rank's [`RankCtx`], so the modeled clocks and statistics are
/// engine-independent by the `Backend` determinism contract.
///
/// # Panics
/// Panics if the new distribution has a different global length or processor
/// count than the old one.
pub fn remap<T, B>(backend: &mut B, array: &mut DistArray<T>, new_dist: Distribution) -> usize
where
    T: Clone + Default + Send + Sync,
    B: Backend,
{
    let old_dist = array.dist().clone();
    assert_eq!(
        old_dist.len(),
        new_dist.len(),
        "remap cannot change the global array length"
    );
    assert_eq!(
        old_dist.nprocs(),
        new_dist.nprocs(),
        "remap cannot change the processor count"
    );
    let nprocs = old_dist.nprocs();

    // New local storage, built per rank in the unpack stage, plus a per-rank
    // tally of how many elements arrived from *other* ranks.
    let mut new_local: Vec<Vec<T>> = (0..nprocs)
        .map(|p| vec![T::default(); new_dist.local_size(p)])
        .collect();
    let mut moved_in = vec![0usize; nprocs];

    // One driver-side O(n) grouping pass (exactly the locate work the old
    // global scan performed): each rank's old-owned elements as
    // (old offset, new owner, new offset) triples, in local-offset order.
    // Both exchange stages iterate these rank-local lists, so the rank
    // kernels are pure data movement and charging — no per-element
    // translation lookups, and O(n/P) work per rank regardless of the
    // distribution kind.
    let mut owned: Vec<Vec<(u32, u32, u32)>> = (0..nprocs)
        .map(|p| Vec::with_capacity(old_dist.local_size(p)))
        .collect();
    for g in 0..old_dist.len() {
        let (old_p, old_off) = old_dist.locate(g);
        let (new_p, new_off) = new_dist.locate(g);
        owned[old_p].push((old_off as u32, new_p as u32, new_off as u32));
    }

    {
        let array = &*array;
        let owned = &owned;
        backend.run_exchange(
            |ctx: &mut RankCtx<'_>, outbox: &mut Outbox<'_, (u32, T)>| {
                // Pack (as old owner): scan this rank's segment in local
                // order, post the elements whose owner changes to their new
                // owners, charge one memory word per element that stays and
                // tally the per-pair words for the movers.
                let src = ctx.rank();
                let local = array.local(src);
                let mut pair_words = vec![0u32; nprocs];
                for &(old_off, new_p, new_off) in &owned[src] {
                    if new_p as usize == src {
                        ctx.charge_memory(src, 1.0);
                    } else {
                        pair_words[new_p as usize] += 1;
                        outbox.post(new_p as usize, [(new_off, local[old_off as usize].clone())]);
                    }
                }
                for (dst, &words) in pair_words.iter().enumerate() {
                    if words > 0 {
                        ctx.charge_memory(src, words as f64);
                        ctx.charge_memory(dst, words as f64);
                        ctx.charge_p2p(src, dst, words as usize);
                    }
                }
            },
            new_local.iter_mut().zip(moved_in.iter_mut()),
            |ctx: &mut RankCtx<'_>,
             (segment, moved): (&mut Vec<T>, &mut usize),
             inbox: &Inbox<'_, (u32, T)>| {
                // Unpack (as new owner): copy the elements this rank keeps
                // straight across from its own old segment, then place every
                // arriving mover at its new offset.
                let me = ctx.rank();
                let local = array.local(me);
                for &(old_off, new_p, new_off) in &owned[me] {
                    if new_p as usize == me {
                        segment[new_off as usize] = local[old_off as usize].clone();
                    }
                }
                for from in 0..ctx.nprocs() {
                    let payload = inbox.from_rank(from);
                    *moved += payload.len();
                    for &(new_off, ref value) in payload {
                        segment[new_off as usize] = value.clone();
                    }
                }
            },
        );
    }

    array.replace_storage(new_dist, new_local);
    moved_in.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dad::Dad;
    use chaos_dmsim::{Machine, MachineConfig};

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

    #[test]
    #[should_panic(expected = "global array length")]
    fn remap_rejects_length_change() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let mut a: DistArray<f64> = DistArray::new("x", Distribution::block(8, 2));
        remap(&mut m, &mut a, Distribution::block(9, 2));
    }
}
