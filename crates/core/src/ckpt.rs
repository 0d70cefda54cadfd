//! Checkpoint cost accounting for epoch checkpoint/rollback.
//!
//! A checkpoint copies the dirty shards of the program's distributed arrays
//! plus the machine's clocks and statistics. The copy itself is exact (plain
//! `clone_from` of the shard `Vec`s — see
//! [`crate::darray::DistArray::copy_values_from`]); this module charges its
//! *modeled* cost to the virtual clocks: each rank's shard scan is charged
//! to that rank rank-parallel through the [`Backend`], and the fixed
//! bookkeeping that does not scale with the shard sizes is split evenly
//! over every processor.

use chaos_dmsim::Backend;

/// Modeled compute units per word scanned while copying a shard into (or out
/// of) a checkpoint. A copy is cheaper than a partitioner pass over the same
/// words: one read and one write per word, no arithmetic.
pub const CKPT_OPS_PER_WORD: f64 = 0.5;

/// Fixed per-checkpoint bookkeeping (clock/statistics snapshot, dirty-set
/// bookkeeping) in compute units, independent of the shard sizes.
pub const CKPT_BASE_OPS: f64 = 64.0;

/// Charge one checkpoint (or restore) of `rank_words[p]` words on each rank
/// `p` to the backend's clocks: [`CKPT_OPS_PER_WORD`] per word to the rank
/// that scans it, through a rank-parallel compute region, then
/// [`CKPT_BASE_OPS`] split evenly over the processors.
///
/// # Panics
/// Panics if `rank_words.len()` differs from the backend's rank count.
pub fn charge_checkpoint<B: Backend + ?Sized>(backend: &mut B, rank_words: &[usize]) {
    let nprocs = backend.nprocs();
    assert_eq!(
        rank_words.len(),
        nprocs,
        "charge_checkpoint: one word count per rank"
    );
    backend.run_charges(|ctx| {
        let rank = ctx.rank();
        ctx.charge_compute(rank, CKPT_OPS_PER_WORD * rank_words[rank] as f64);
    });
    backend
        .machine_mut()
        .charge_compute_all(CKPT_BASE_OPS / nprocs as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_dmsim::{Machine, MachineConfig};

    #[test]
    fn residual_is_size_independent_bookkeeping() {
        // Each rank pays its own scan plus an equal share of the fixed
        // bookkeeping — whatever the checkpoint size.
        for words in [0usize, 10, 1_000_000] {
            let mut machine = Machine::new(MachineConfig::unit(2));
            let rank_words = [words, words];
            charge_checkpoint(&mut machine, &rank_words);
            let elapsed = machine.elapsed();
            let expected = CKPT_OPS_PER_WORD * words as f64 + CKPT_BASE_OPS / 2.0;
            assert_eq!(elapsed.per_proc[0].to_bits(), expected.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "one word count per rank")]
    fn rank_words_must_match_the_machine() {
        let mut machine = Machine::new(MachineConfig::unit(4));
        charge_checkpoint(&mut machine, &[1, 2]);
    }
}
