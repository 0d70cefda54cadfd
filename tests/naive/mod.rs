//! Naive reference implementation of the inspector/executor pipeline.
//!
//! This module preserves the original nested-`Vec` + `HashMap` formulation
//! of `localize` (with the translation table's `dereference`), `gather` and
//! `scatter_add` (schedules as `Vec<Vec<(owner, offset)>>` ghost lists and
//! per-owner `Vec<SendList>`s, communication through materialized
//! [`ExchangePlan`]s, which this module owns along with their one consumer,
//! [`exchange`]). It is **not** used by the runtime — the flat CSR
//! implementation in `chaos_runtime::schedule` / `chaos_runtime::executor`
//! is — but is retained as an executable specification:
//! `csr_pipeline_matches_naive_reference` asserts that the CSR executor
//! sweep produces byte-identical gather/scatter results and identical
//! message/volume accounting against this reference.

// This module intentionally preserves the seed's code shape, idioms
// included — it is the oracle, not the implementation.
#![allow(clippy::needless_range_loop)]

use chaos_repro::dmsim::{Machine, PhaseCharge};
use chaos_repro::runtime::{AccessPattern, DistArray, Distribution, TranslationTable};
use std::collections::HashMap;

/// One phase of materialized `(from, to, payload)` messages.
pub type ExchangePlan<T> = Vec<(usize, usize, Vec<T>)>;

/// The seed's `Machine::exchange`: charge every message of `plan` with
/// [`Machine::charge_p2p`] in plan order, close the phase (its totals, then
/// the implicit barrier), and move each payload to its destination's list as
/// `(source, payload)`, in plan order.
pub fn exchange<T>(machine: &mut Machine, plan: ExchangePlan<T>) -> Vec<Vec<(usize, Vec<T>)>> {
    let mut delivered: Vec<Vec<(usize, Vec<T>)>> =
        (0..machine.nprocs()).map(|_| Vec::new()).collect();
    let mut phase = PhaseCharge::new();
    for (from, to, payload) in plan {
        machine.charge_p2p(&mut phase, from, to, payload.len());
        delivered[to].push((from, payload));
    }
    machine.end_phase(phase);
    delivered
}

/// One owner→requester send list of the naive schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveSendList {
    /// The processor the data is sent to.
    pub to: u32,
    /// Local offsets (on the owner) to pack, in order.
    pub offsets: Vec<u32>,
    /// Ghost slots (on the requester) the packed values land in, same order.
    pub ghost_slots: Vec<u32>,
}

/// The naive nested-`Vec` communication schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveSchedule {
    nprocs: usize,
    /// For requester `p`: the `(owner, offset)` of each ghost slot.
    pub ghost_sources: Vec<Vec<(u32, u32)>>,
    /// For owner `o`: its send lists.
    pub send_lists: Vec<Vec<NaiveSendList>>,
}

impl NaiveSchedule {
    /// Build the schedule and charge the request exchange, exactly as the
    /// seed implementation did.
    pub fn build(machine: &mut Machine, ghost_sources: Vec<Vec<(u32, u32)>>) -> Self {
        let nprocs = machine.nprocs();
        assert_eq!(ghost_sources.len(), nprocs);
        let mut grouped: Vec<Vec<(Vec<u32>, Vec<u32>)>> =
            vec![vec![(Vec::new(), Vec::new()); nprocs]; nprocs];
        for (requester, sources) in ghost_sources.iter().enumerate() {
            for (slot, &(owner, offset)) in sources.iter().enumerate() {
                let cell = &mut grouped[owner as usize][requester];
                cell.0.push(offset);
                cell.1.push(slot as u32);
            }
        }
        let mut plan: ExchangePlan<u32> = Vec::new();
        for (owner, row) in grouped.iter().enumerate() {
            for (requester, (offsets, _)) in row.iter().enumerate() {
                if !offsets.is_empty() {
                    plan.push((requester, owner, offsets.clone()));
                }
            }
        }
        exchange(machine, plan);
        let send_lists: Vec<Vec<NaiveSendList>> = grouped
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .enumerate()
                    .filter(|(_, (offsets, _))| !offsets.is_empty())
                    .map(|(requester, (offsets, ghost_slots))| NaiveSendList {
                        to: requester as u32,
                        offsets,
                        ghost_slots,
                    })
                    .collect()
            })
            .collect();
        NaiveSchedule {
            nprocs,
            ghost_sources,
            send_lists,
        }
    }

    /// Owner `owner`'s send list to `requester`.
    fn send_to(&self, owner: usize, requester: usize) -> &NaiveSendList {
        self.send_lists[owner]
            .iter()
            .find(|send| send.to as usize == requester)
            .expect("one send list per communicating pair")
    }

    /// Number of point-to-point messages one gather performs.
    pub fn message_count(&self) -> usize {
        self.send_lists.iter().map(Vec::len).sum()
    }

    /// Ghost-buffer size of `proc`.
    pub fn ghost_count(&self, proc: usize) -> usize {
        self.ghost_sources[proc].len()
    }
}

/// Result of [`localize`]: the naive schedule plus localized references.
#[derive(Debug, Clone)]
pub struct NaiveInspectorResult {
    /// The naive communication schedule.
    pub schedule: NaiveSchedule,
    /// Localized references, same shape as the input pattern: an owned
    /// offset, or the processor's owned count plus a ghost slot.
    pub localized: Vec<Vec<u32>>,
    /// Ghost-buffer sizes.
    pub ghost_counts: Vec<usize>,
}

/// The seed's `TranslationTable::dereference`: ship each rank's requests
/// to their page owners (one block of the BLOCK split per rank) through a
/// real exchange, then have the owners probe their pages and answer with
/// `(owner, offset)` pairs, twice the volume of the request.
pub fn dereference(
    machine: &mut Machine,
    table: &TranslationTable,
    requests: &[Vec<u32>],
) -> Vec<Vec<(u32, u32)>> {
    let nprocs = machine.nprocs();
    let block = table.len().div_ceil(nprocs).max(1);
    let mut plan: ExchangePlan<u32> = Vec::new();
    for (p, reqs) in requests.iter().enumerate() {
        let mut per_dest: Vec<Vec<u32>> = vec![Vec::new(); nprocs];
        for &g in reqs {
            per_dest[(g as usize / block).min(nprocs - 1)].push(g);
        }
        for (page, payload) in per_dest.into_iter().enumerate() {
            if !payload.is_empty() {
                plan.push((p, page, payload));
            }
        }
    }
    let reply: ExchangePlan<u32> = plan
        .iter()
        .map(|(p, page, payload)| (*page, *p, vec![0u32; 2 * payload.len()]))
        .collect();
    exchange(machine, plan);
    for (page, _, answers) in &reply {
        machine.charge_compute(*page, (answers.len() / 2) as f64);
    }
    exchange(machine, reply);
    let answer = |&g: &u32| {
        let g = g as usize;
        (table.owner(g) as u32, table.local_offset(g) as u32)
    };
    requests
        .iter()
        .map(|reqs| reqs.iter().map(answer).collect())
        .collect()
}

/// The seed's `Inspector::localize`: per-index translation, `HashMap`-based
/// slot assignment, nested-`Vec` schedule.
pub fn localize(
    machine: &mut Machine,
    data_dist: &Distribution,
    pattern: &AccessPattern,
) -> NaiveInspectorResult {
    let nprocs = machine.nprocs();
    assert_eq!(pattern.refs.len(), nprocs);
    let located: Vec<Vec<(u32, u32)>> = match data_dist {
        Distribution::Irregular { table } => dereference(machine, table, &pattern.refs),
        _ => {
            let mut out = Vec::with_capacity(nprocs);
            for (p, refs) in pattern.refs.iter().enumerate() {
                machine.charge_compute(p, refs.len() as f64);
                out.push(
                    refs.iter()
                        .map(|&g| {
                            let (o, off) = data_dist.locate(g as usize);
                            (o as u32, off as u32)
                        })
                        .collect(),
                );
            }
            out
        }
    };

    let mut ghost_sources: Vec<Vec<(u32, u32)>> = Vec::with_capacity(nprocs);
    let mut localized: Vec<Vec<u32>> = Vec::with_capacity(nprocs);
    for p in 0..nprocs {
        let mut offproc: Vec<(u32, u32)> = located[p]
            .iter()
            .copied()
            .filter(|&(owner, _)| owner as usize != p)
            .collect();
        offproc.sort_unstable();
        offproc.dedup();
        let slot_of: HashMap<(u32, u32), u32> = offproc
            .iter()
            .enumerate()
            .map(|(slot, &src)| (src, slot as u32))
            .collect();
        let n_owned = data_dist.local_size(p) as u32;
        let locals: Vec<u32> = located[p]
            .iter()
            .map(|&(owner, off)| {
                if owner as usize == p {
                    off
                } else {
                    n_owned + slot_of[&(owner, off)]
                }
            })
            .collect();
        machine.charge_compute(p, 2.0 * located[p].len() as f64 + offproc.len() as f64);
        ghost_sources.push(offproc);
        localized.push(locals);
    }

    let ghost_counts: Vec<usize> = ghost_sources.iter().map(Vec::len).collect();
    let schedule = NaiveSchedule::build(machine, ghost_sources);
    NaiveInspectorResult {
        schedule,
        localized,
        ghost_counts,
    }
}

/// The seed's `gather`: pack payload vectors, run a real exchange, unpack.
pub fn gather<T: Clone + Default + Send>(
    machine: &mut Machine,
    schedule: &NaiveSchedule,
    array: &DistArray<T>,
) -> Vec<Vec<T>> {
    let nprocs = machine.nprocs();
    assert_eq!(schedule.nprocs, nprocs);
    let mut ghosts: Vec<Vec<T>> = (0..nprocs)
        .map(|p| vec![T::default(); schedule.ghost_count(p)])
        .collect();
    let mut plan: ExchangePlan<T> = Vec::new();
    for owner in 0..nprocs {
        let local = array.local(owner);
        for send in &schedule.send_lists[owner] {
            let payload: Vec<T> = send
                .offsets
                .iter()
                .map(|&off| local[off as usize].clone())
                .collect();
            machine.charge_memory(owner, payload.len() as f64);
            plan.push((owner, send.to as usize, payload));
        }
    }
    let delivered = exchange(machine, plan);
    for (dest, inbox) in delivered.into_iter().enumerate() {
        for (owner, payload) in inbox {
            let send = schedule.send_to(owner, dest);
            machine.charge_memory(dest, payload.len() as f64);
            for (value, &slot) in payload.into_iter().zip(&send.ghost_slots) {
                ghosts[dest][slot as usize] = value;
            }
        }
    }
    ghosts
}

/// The seed's `scatter_add`: ship contributions through a real exchange and
/// combine at the owners via an intermediate update list.
pub fn scatter_add(
    machine: &mut Machine,
    schedule: &NaiveSchedule,
    array: &mut DistArray<f64>,
    contributions: &[Vec<f64>],
) {
    let nprocs = machine.nprocs();
    assert_eq!(schedule.nprocs, nprocs);
    let mut plan: ExchangePlan<f64> = Vec::new();
    for owner in 0..nprocs {
        for send in &schedule.send_lists[owner] {
            let requester = send.to as usize;
            let payload: Vec<f64> = send
                .ghost_slots
                .iter()
                .map(|&slot| contributions[requester][slot as usize])
                .collect();
            machine.charge_memory(requester, payload.len() as f64);
            plan.push((requester, owner, payload));
        }
    }
    let delivered = exchange(machine, plan);
    for (owner, inbox) in delivered.into_iter().enumerate() {
        let updates: Vec<(u32, f64)> = inbox
            .into_iter()
            .flat_map(|(requester, payload)| {
                let send = schedule.send_to(owner, requester);
                send.offsets.iter().copied().zip(payload)
            })
            .collect();
        machine.charge_compute(owner, updates.len() as f64);
        let local = array.local_mut(owner);
        for (off, value) in updates {
            local[off as usize] += value;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_repro::dmsim::MachineConfig;

    #[test]
    fn naive_pipeline_round_trips() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let dist = Distribution::block(8, 2);
        let x = DistArray::from_global(
            "x",
            dist.clone(),
            &(0..8).map(|i| i as f64).collect::<Vec<_>>(),
        );
        let pattern = AccessPattern {
            refs: vec![vec![4, 5, 5], vec![0]],
        };
        let r = localize(&mut m, &dist, &pattern);
        assert_eq!(r.ghost_counts, vec![2, 1]);
        let ghosts = gather(&mut m, &r.schedule, &x);
        assert_eq!(ghosts[0], vec![4.0, 5.0]);
        let mut y = DistArray::from_global("y", dist, &[0.0; 8]);
        scatter_add(&mut m, &r.schedule, &mut y, &ghosts);
        assert_eq!(y.to_global()[4], 4.0);
        assert_eq!(y.to_global()[0], 0.0);
    }
}
