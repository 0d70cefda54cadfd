//! The one collective the CHAOS runtime runs every sweep: the single-word
//! all-reduce behind the schedule-reuse vote ("has anyone's view of this
//! loop's arrays changed?").
//!
//! Like every gather and scatter it is **charge-only**: the simulator shares
//! one address space, so the caller already holds the combined value and the
//! machine is only asked what agreeing on it costs — one message per edge of
//! the binomial tree on the way up, one on the way down, each sweep a quiet
//! phase (no labelled record, no allocation).

use crate::machine::{Machine, PhaseCharge};
use crate::topology::binomial_tree_edges;

/// Charge an all-reduce of one word over the binomial tree rooted at
/// processor 0: a reduction phase (child → parent on every edge), then the
/// broadcast of the result back down the same edges.
pub fn charge_all_reduce_word(machine: &mut Machine) {
    let p = machine.nprocs();
    let mut up = PhaseCharge::new();
    for (parent, child) in binomial_tree_edges(p, 0) {
        machine.charge_p2p(&mut up, child, parent, 1);
    }
    machine.end_phase_quiet(up);
    let mut down = PhaseCharge::new();
    for (parent, child) in binomial_tree_edges(p, 0) {
        machine.charge_p2p(&mut down, parent, child, 1);
    }
    machine.end_phase_quiet(down);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn all_reduce_scalar_max() {
        // 8 processors: 7 tree edges, walked up and then down, one word
        // each, as two phases that leave no labelled record behind.
        let mut m = Machine::new(MachineConfig::unit(8));
        charge_all_reduce_word(&mut m);
        let t = m.stats().grand_totals();
        assert_eq!((t.messages, t.phases), (14, 2));
        assert_eq!(t.bytes, 14 * m.config().word_bytes);
        assert!(m.stats().is_empty(), "the vote is a quiet phase");
        assert!(m.elapsed().max_seconds() > 0.0);
    }

    #[test]
    fn single_processor_collectives_are_trivial() {
        let mut m = Machine::new(MachineConfig::unit(1));
        charge_all_reduce_word(&mut m);
        assert_eq!(m.stats().grand_totals().messages, 0);
        assert_eq!(m.elapsed().max_seconds(), 0.0);
    }
}
