//! Communication schedules.
//!
//! A schedule records, once, everything needed to move the off-processor
//! data a loop references: which elements each owner must send to which
//! requester (the *send lists*), and into which ghost-buffer slot each
//! incoming value lands (the *receive slots*). Building a schedule requires
//! one request exchange (an inspector cost); using it — a gather and a
//! scatter in every [`crate::executor::sweep`] — is an executor cost paid
//! every iteration. Amortizing the former over many of the latter is
//! exactly what the paper's schedule-reuse mechanism is for.
//!
//! Constructing a [`CommSchedule`] never charges the machine: the request
//! exchange is charged by one function, [`charge_request_exchange`], over
//! every schedule whose ghosts a build actually requests (one, or several
//! folded into one exchange).
//!
//! # Layout
//!
//! Because schedule *use* is the per-iteration hot path, the schedule is
//! stored as flat CSR (compressed sparse row) arenas rather than nested
//! `Vec<Vec<…>>`s — the same flat offset-array layout the original
//! PARTI/CHAOS C runtime used:
//!
//! * **Ghost side** (per requester, struct-of-arrays): `ghost_off[p] ..
//!   ghost_off[p+1]` indexes requester `p`'s ghost slots inside
//!   `ghost_owner` / `ghost_src`, sorted by `(owner, offset)`.
//! * **Send side** (per owner, two-level CSR): `send_off[o] ..
//!   send_off[o+1]` indexes owner `o`'s send lists inside `send_to` /
//!   `seg_off`; send list `s` packs the owner-local offsets
//!   `pack_src[seg_off[s] .. seg_off[s+1]]` destined for the requester's
//!   ghost slots `pack_slot[seg_off[s] .. seg_off[s+1]]`.
//!
//! The executor therefore iterates contiguous `&[u32]` slices with zero
//! per-send pointer chasing. A naive nested-`Vec` reference implementation
//! is retained as test support (`tests/naive`) and checked byte-for-byte
//! equivalent by `tests/proptest_invariants.rs`.

use chaos_dmsim::{Machine, PhaseCharge};

/// A reusable communication schedule for one loop / one distributed-array
/// distribution, stored as flat CSR arenas (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSchedule {
    nprocs: usize,
    /// CSR offsets over the ghost-side arrays: requester `p`'s slots are
    /// `ghost_off[p] .. ghost_off[p+1]`.
    ghost_off: Vec<u32>,
    /// Owning processor of each ghost slot.
    ghost_owner: Vec<u32>,
    /// Owner-local offset of each ghost slot's source element.
    ghost_src: Vec<u32>,
    /// CSR offsets over `send_to` / `seg_off`: owner `o`'s send lists are
    /// `send_off[o] .. send_off[o+1]`.
    send_off: Vec<u32>,
    /// Destination requester of each send list.
    send_to: Vec<u32>,
    /// CSR offsets over the packed entry arrays; send list `s` owns entries
    /// `seg_off[s] .. seg_off[s+1]`. Length `send_to.len() + 1`.
    seg_off: Vec<u32>,
    /// Owner-local offsets to pack, per entry.
    pack_src: Vec<u32>,
    /// Ghost slots at the requester the packed values land in, per entry.
    pack_slot: Vec<u32>,
}

/// One owner→requester send list, borrowed from the schedule's arenas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendRef<'a> {
    /// The processor the data is sent to.
    pub to: u32,
    /// Owner-local offsets to pack, in order.
    pub offsets: &'a [u32],
    /// Ghost slots (on the requester) the packed values land in, same order.
    pub ghost_slots: &'a [u32],
}

impl CommSchedule {
    /// Build a schedule from the flat ghost-side arrays (the form the
    /// inspector produces; see the module docs for the layout):
    /// `ghost_off[p] .. ghost_off[p+1]` indexes processor `p`'s ghost slots,
    /// each naming the owning processor and the element's local offset
    /// there. Slots must not reference elements owned by `p` itself (those
    /// are local accesses, not ghosts).
    ///
    /// Nothing is charged: the request exchange is paid by
    /// [`charge_request_exchange`], once the caller knows which ghosts are
    /// still missing.
    pub fn from_csr_parts(
        nprocs: usize,
        ghost_off: Vec<u32>,
        ghost_owner: Vec<u32>,
        ghost_src: Vec<u32>,
    ) -> Self {
        assert_eq!(
            ghost_off.len(),
            nprocs + 1,
            "ghost_sources must have one entry per processor"
        );
        assert_eq!(ghost_owner.len(), ghost_src.len());
        assert_eq!(*ghost_off.last().unwrap() as usize, ghost_owner.len());

        // Validate the ghost side, then hand the layout pass to
        // `from_ghost_arrays` (shared with the test oracles `difference` /
        // `merge_incremental`).
        for p in 0..nprocs {
            let (lo, hi) = (ghost_off[p] as usize, ghost_off[p + 1] as usize);
            for &owner in &ghost_owner[lo..hi] {
                assert!(
                    (owner as usize) < nprocs,
                    "ghost slot references processor {owner} out of range"
                );
                assert_ne!(
                    owner as usize, p,
                    "ghost slot on processor {p} references itself"
                );
            }
        }
        Self::from_ghost_arrays(nprocs, ghost_off, ghost_owner, ghost_src)
    }

    /// Processor count the schedule was built for.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of ghost slots (off-processor copies) held by `proc`.
    #[inline]
    pub fn ghost_count(&self, proc: usize) -> usize {
        (self.ghost_off[proc + 1] - self.ghost_off[proc]) as usize
    }

    /// Total ghost slots over all processors — the communication volume (in
    /// elements) of one gather.
    pub fn total_ghosts(&self) -> usize {
        self.ghost_owner.len()
    }

    /// Number of point-to-point messages one gather (or scatter) performs.
    pub fn message_count(&self) -> usize {
        self.send_to.len()
    }

    /// The `(owner, offset)` sources of processor `proc`'s ghost slots, in
    /// slot order.
    pub fn ghost_sources(&self, proc: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (lo, hi) = (
            self.ghost_off[proc] as usize,
            self.ghost_off[proc + 1] as usize,
        );
        self.ghost_owner[lo..hi]
            .iter()
            .zip(&self.ghost_src[lo..hi])
            .map(|(&o, &s)| (o, s))
    }

    /// Owning processor of each of `proc`'s ghost slots (slot order).
    pub fn ghost_owners(&self, proc: usize) -> &[u32] {
        &self.ghost_owner[self.ghost_off[proc] as usize..self.ghost_off[proc + 1] as usize]
    }

    /// Owner-local source offset of each of `proc`'s ghost slots (slot
    /// order).
    pub fn ghost_src_offsets(&self, proc: usize) -> &[u32] {
        &self.ghost_src[self.ghost_off[proc] as usize..self.ghost_off[proc + 1] as usize]
    }

    /// The send lists of owner `proc`, as borrowed slices over the packed
    /// arenas — the executor's zero-indirection iteration.
    pub fn sends(&self, proc: usize) -> impl Iterator<Item = SendRef<'_>> + '_ {
        let (lo, hi) = (
            self.send_off[proc] as usize,
            self.send_off[proc + 1] as usize,
        );
        (lo..hi).map(move |s| {
            let (a, b) = (self.seg_off[s] as usize, self.seg_off[s + 1] as usize);
            SendRef {
                to: self.send_to[s],
                offsets: &self.pack_src[a..b],
                ghost_slots: &self.pack_slot[a..b],
            }
        })
    }

    /// The part of this schedule not already covered by `resident`: a
    /// schedule containing exactly the `(owner, offset)` sources of `self`
    /// that `resident` does not hold, in `self`'s slot order.
    ///
    /// With [`CommSchedule::merge_incremental`], the oracle of
    /// [`ReuseRegistry::region_bind`](crate::reuse::ReuseRegistry::region_bind),
    /// which finds the same difference in one lookup per source against
    /// the region's kept index instead of re-sorting the resident side.
    #[cfg(test)]
    pub(crate) fn difference(&self, resident: &CommSchedule) -> CommSchedule {
        assert_eq!(
            self.nprocs, resident.nprocs,
            "cannot difference schedules built for different machine sizes"
        );
        let nprocs = self.nprocs;
        let key = |o: u32, s: u32| ((o as u64) << 32) | s as u64;
        let mut ghost_off = Vec::with_capacity(nprocs + 1);
        let mut ghost_owner = Vec::new();
        let mut ghost_src = Vec::new();
        ghost_off.push(0u32);
        for p in 0..nprocs {
            // The resident side makes no ordering promise (a region is a
            // concatenation of per-bind chunks), so canonicalize it first.
            let mut held: Vec<u64> = resident.ghost_sources(p).map(|(o, s)| key(o, s)).collect();
            held.sort_unstable();
            for (o, s) in self.ghost_sources(p) {
                if held.binary_search(&key(o, s)).is_err() {
                    ghost_owner.push(o);
                    ghost_src.push(s);
                }
            }
            ghost_off.push(ghost_owner.len() as u32);
        }
        Self::from_ghost_arrays(nprocs, ghost_off, ghost_owner, ghost_src)
    }

    /// Grow this schedule (a resident union whose slot numbering must stay
    /// stable — earlier loops' bindings point into it) by the sources of
    /// `newer`: existing slots keep their numbers, and `newer`'s sources not
    /// yet present are appended per processor in canonical `(owner, offset)`
    /// order.
    ///
    /// Returns the grown union plus, per processor, the mapping from
    /// `newer`'s ghost-slot numbers to slots in the union — the re-binding
    /// table that lets the later loop's kernels read the shared resident
    /// ghost region. Purely local; no communication is charged. A test
    /// oracle, as [`CommSchedule::difference`] is.
    #[cfg(test)]
    pub(crate) fn merge_incremental(&self, newer: &CommSchedule) -> (CommSchedule, Vec<Vec<u32>>) {
        assert_eq!(
            self.nprocs, newer.nprocs,
            "cannot merge schedules built for different machine sizes"
        );
        let nprocs = self.nprocs;
        let key = |o: u32, s: u32| ((o as u64) << 32) | s as u64;
        let mut ghost_off = Vec::with_capacity(nprocs + 1);
        // Every resident slot is kept; only the appended tails grow these.
        let mut ghost_owner = Vec::with_capacity(self.total_ghosts());
        let mut ghost_src = Vec::with_capacity(self.total_ghosts());
        let mut map: Vec<Vec<u32>> = Vec::with_capacity(nprocs);
        ghost_off.push(0u32);
        for p in 0..nprocs {
            let base = self.ghost_count(p) as u32;
            // Sorted (key, resident slot) index over the resident side, which
            // itself stays in its original (append-only) order.
            let mut held: Vec<(u64, u32)> = self
                .ghost_sources(p)
                .enumerate()
                .map(|(slot, (o, s))| (key(o, s), slot as u32))
                .collect();
            held.sort_unstable();
            // The appended tail: newer's sources absent from the resident
            // side, in canonical order.
            let mut fresh: Vec<u64> = newer
                .ghost_sources(p)
                .map(|(o, s)| key(o, s))
                .filter(|k| held.binary_search_by_key(k, |&(k, _)| k).is_err())
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            map.push(
                newer
                    .ghost_sources(p)
                    .map(|(o, s)| {
                        let k = key(o, s);
                        match held.binary_search_by_key(&k, |&(k, _)| k) {
                            Ok(i) => held[i].1,
                            Err(_) => base + fresh.binary_search(&k).expect("appended") as u32,
                        }
                    })
                    .collect(),
            );
            for (o, s) in self.ghost_sources(p) {
                ghost_owner.push(o);
                ghost_src.push(s);
            }
            for &k in &fresh {
                ghost_owner.push((k >> 32) as u32);
                ghost_src.push(k as u32);
            }
            ghost_off.push(ghost_owner.len() as u32);
        }
        let merged = Self::from_ghost_arrays(nprocs, ghost_off, ghost_owner, ghost_src);
        (merged, map)
    }

    /// Construct the full CSR schedule from validated ghost-side arrays
    /// without charging any machine.
    fn from_ghost_arrays(
        nprocs: usize,
        ghost_off: Vec<u32>,
        ghost_owner: Vec<u32>,
        ghost_src: Vec<u32>,
    ) -> Self {
        let mut pair_counts = vec![0u32; nprocs * nprocs];
        for p in 0..nprocs {
            let (lo, hi) = (ghost_off[p] as usize, ghost_off[p + 1] as usize);
            for &owner in &ghost_owner[lo..hi] {
                pair_counts[owner as usize * nprocs + p] += 1;
            }
        }
        let nsends = pair_counts.iter().filter(|&&c| c > 0).count();
        let mut send_off = Vec::with_capacity(nprocs + 1);
        let mut send_to = Vec::with_capacity(nsends);
        let mut seg_off = Vec::with_capacity(nsends + 1);
        let mut seg_of_pair = vec![0u32; nprocs * nprocs];
        send_off.push(0u32);
        seg_off.push(0u32);
        let mut entries = 0u32;
        for owner in 0..nprocs {
            for requester in 0..nprocs {
                let c = pair_counts[owner * nprocs + requester];
                if c > 0 {
                    seg_of_pair[owner * nprocs + requester] = send_to.len() as u32 + 1;
                    send_to.push(requester as u32);
                    entries += c;
                    seg_off.push(entries);
                }
            }
            send_off.push(send_to.len() as u32);
        }
        let mut cursor: Vec<u32> = seg_off[..nsends].to_vec();
        let mut pack_src = vec![0u32; entries as usize];
        let mut pack_slot = vec![0u32; entries as usize];
        for p in 0..nprocs {
            let (lo, hi) = (ghost_off[p] as usize, ghost_off[p + 1] as usize);
            for slot in lo..hi {
                let owner = ghost_owner[slot] as usize;
                let seg = seg_of_pair[owner * nprocs + p] as usize - 1;
                let at = cursor[seg] as usize;
                pack_src[at] = ghost_src[slot];
                pack_slot[at] = (slot - lo) as u32;
                cursor[seg] += 1;
            }
        }
        let schedule = CommSchedule {
            nprocs,
            ghost_off,
            ghost_owner,
            ghost_src,
            send_off,
            send_to,
            seg_off,
            pack_src,
            pack_slot,
        };
        if cfg!(debug_assertions) {
            schedule.check_invariants();
        }
        schedule
    }

    /// Panic, naming the broken invariant, unless the layout is consistent:
    /// every CSR offset array monotone from 0 and ending at its arena's
    /// length, every owner in range and never the requester itself, and
    /// every ghost slot in exactly one send segment — its owner's, to its
    /// requester — with a matching source offset. Allocation-free; run after
    /// every layout pass in debug builds.
    fn check_invariants(&self) {
        let n = self.nprocs;
        check_offsets("ghost_off", &self.ghost_off, n, self.ghost_owner.len());
        check_offsets("send_off", &self.send_off, n, self.send_to.len());
        let nsends = self.send_to.len();
        check_offsets("seg_off", &self.seg_off, nsends, self.pack_src.len());
        assert!(
            self.ghost_src.len() == self.ghost_owner.len()
                && self.pack_slot.len() == self.pack_src.len(),
            "schedule invariant: parallel arenas differ in length"
        );
        for p in 0..n {
            for &owner in self.ghost_owners(p) {
                assert!(
                    (owner as usize) < n && owner as usize != p,
                    "schedule invariant: a ghost slot of processor {p} names owner {owner}"
                );
            }
        }
        // Each entry lands in a distinct slot of its requester that names
        // this owner and this source; as many entries as slots then puts
        // every slot in exactly one segment.
        for owner in 0..n {
            let lists = self.send_off[owner] as usize..self.send_off[owner + 1] as usize;
            let mut last_to = None;
            for s in lists {
                let to = self.send_to[s];
                assert!(
                    (to as usize) < n && to as usize != owner && last_to < Some(to),
                    "schedule invariant: owner {owner}'s send lists are not one per requester"
                );
                last_to = Some(to);
                let (owners, srcs) = (
                    self.ghost_owners(to as usize),
                    self.ghost_src_offsets(to as usize),
                );
                let entries = self.seg_off[s] as usize..self.seg_off[s + 1] as usize;
                let mut last_slot = None;
                for e in entries {
                    let slot = self.pack_slot[e];
                    assert!(
                        last_slot < Some(slot),
                        "schedule invariant: a send segment lists a ghost slot twice or out of order"
                    );
                    last_slot = Some(slot);
                    let slot = slot as usize;
                    assert!(
                        slot < owners.len() && owners[slot] as usize == owner,
                        "schedule invariant: a send segment of owner {owner} fills a slot it does not own"
                    );
                    assert_eq!(
                        srcs[slot], self.pack_src[e],
                        "schedule invariant: a send entry's source offset differs from its ghost slot's"
                    );
                }
            }
        }
        assert_eq!(
            self.pack_src.len(),
            self.ghost_owner.len(),
            "schedule invariant: not every ghost slot is in exactly one send segment"
        );
    }
}

/// The CSR offset check of [`CommSchedule::check_invariants`]: `off` has one
/// entry per row plus one, is monotone from 0, and ends at `end`.
fn check_offsets(name: &str, off: &[u32], rows: usize, end: usize) {
    assert!(
        off.len() == rows + 1 && off[0] == 0 && off.windows(2).all(|w| w[0] <= w[1]),
        "schedule invariant: {name} is not monotone from 0 over {rows} rows"
    );
    assert_eq!(
        off[rows] as usize, end,
        "schedule invariant: {name} does not end at its arena's length"
    );
}

/// Charge the request exchange of `parts` — each requester tells each owner
/// which offsets it needs — as one phase: the one way a schedule build is
/// charged, and part of the inspector cost in the paper's tables.
///
/// Every `(owner, requester)` pair that any of `parts` communicates over
/// carries a single message whose payload concatenates the per-part offset
/// segments, one word per requested element. When a pair carries segments
/// from two or more parts (the cross-distribution variant of schedule
/// merging), each segment is prefixed with one length-tag word so the owner
/// can split the union back into per-schedule send lists.
///
/// Returns the `(messages, words)` actually charged, so callers can record
/// the saving against the per-part exchanges they replaced.
pub fn charge_request_exchange(machine: &mut Machine, parts: &[&CommSchedule]) -> (usize, usize) {
    let nprocs = machine.nprocs();
    for part in parts {
        assert_eq!(part.nprocs, nprocs, "schedule/machine mismatch");
    }
    let mut phase = PhaseCharge::new();
    let mut messages = 0usize;
    let mut words = 0usize;
    for owner in 0..nprocs {
        for requester in 0..nprocs {
            let sends = parts.iter().flat_map(|part| part.sends(owner));
            let segs = sends.filter(|send| send.to as usize == requester);
            let (nsegs, offsets) =
                segs.fold((0, 0), |(n, len), send| (n + 1, len + send.offsets.len()));
            if nsegs == 0 {
                continue;
            }
            let payload = offsets + if nsegs >= 2 { nsegs } else { 0 };
            messages += 1;
            words += payload;
            machine.charge_p2p(&mut phase, requester, owner, payload);
        }
    }
    machine.end_phase(phase);
    (messages, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chaos_dmsim::MachineConfig;

    /// A schedule from each requester's `(owner, offset)` ghost list.
    fn schedule(nprocs: usize, sources: &[Vec<(u32, u32)>]) -> CommSchedule {
        let mut ghost_off = vec![0u32];
        let (mut ghost_owner, mut ghost_src) = (Vec::new(), Vec::new());
        for row in sources {
            for &(o, s) in row {
                ghost_owner.push(o);
                ghost_src.push(s);
            }
            ghost_off.push(ghost_owner.len() as u32);
        }
        CommSchedule::from_csr_parts(nprocs, ghost_off, ghost_owner, ghost_src)
    }

    /// 2 procs; proc 0 needs elements at offsets 3 and 5 of proc 1, proc 1
    /// needs offset 0 of proc 0.
    fn simple_schedule() -> CommSchedule {
        schedule(2, &[vec![(1, 3), (1, 5)], vec![(0, 0)]])
    }

    #[test]
    fn build_produces_matching_send_lists() {
        let s = simple_schedule();
        assert_eq!(s.nprocs(), 2);
        assert_eq!(s.ghost_count(0), 2);
        assert_eq!(s.ghost_count(1), 1);
        assert_eq!(s.total_ghosts(), 3);
        assert_eq!(s.message_count(), 2);

        let from1: Vec<_> = s.sends(1).collect();
        assert_eq!(from1.len(), 1);
        assert_eq!(from1[0].to, 0);
        assert_eq!(from1[0].offsets, &[3, 5]);
        assert_eq!(from1[0].ghost_slots, &[0, 1]);

        let from0: Vec<_> = s.sends(0).collect();
        assert_eq!(from0[0].to, 1);
        assert_eq!(from0[0].offsets, &[0]);
    }

    #[test]
    fn build_charges_request_exchange() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let s = simple_schedule();
        let (messages, words) = charge_request_exchange(&mut m, &[&s]);
        assert_eq!((messages, words), (s.message_count(), s.total_ghosts()));
        let t = m.stats().grand_totals();
        assert_eq!((t.messages, t.phases), (2, 1));
        assert!(m.elapsed().max_seconds() > 0.0);
    }

    #[test]
    fn empty_schedule_is_free_of_messages() {
        let mut m = Machine::new(MachineConfig::unit(4));
        let s = schedule(4, &[Vec::new(), Vec::new(), Vec::new(), Vec::new()]);
        assert_eq!(s.total_ghosts(), 0);
        assert_eq!(s.message_count(), 0);
        charge_request_exchange(&mut m, &[&s]);
        assert_eq!(m.stats().grand_totals().messages, 0);
    }

    #[test]
    #[should_panic(expected = "references itself")]
    fn self_reference_rejected() {
        let _ = schedule(2, &[vec![(0, 1)], Vec::new()]);
    }

    #[test]
    #[should_panic(expected = "one entry per processor")]
    fn wrong_shape_rejected() {
        let _ = schedule(4, &[Vec::new(), Vec::new()]);
    }

    /// Corrupt a valid schedule and assert that `check_invariants` panics
    /// naming `invariant`.
    fn assert_breaks(invariant: &str, corrupt: impl FnOnce(&mut CommSchedule)) {
        let mut s = schedule(3, &[vec![(1, 3), (1, 5), (2, 0)], vec![(0, 0)], vec![]]);
        s.check_invariants();
        corrupt(&mut s);
        let payload = std::panic::catch_unwind(|| s.check_invariants()).expect_err(invariant);
        let message = (payload.downcast_ref::<String>().map(String::as_str))
            .or(payload.downcast_ref::<&str>().copied());
        assert!(
            message.is_some_and(|m| m.contains(invariant)),
            "{invariant:?} not in {message:?}"
        );
    }

    #[test]
    fn a_corrupted_layout_fails_the_invariant_it_breaks() {
        assert_breaks("ghost_off is not monotone", |s| s.ghost_off.swap(1, 2));
        assert_breaks("send_off does not end", |s| {
            *s.send_off.last_mut().unwrap() -= 1
        });
        assert_breaks("names owner 1", |s| s.ghost_owner[3] = 1);
        assert_breaks("not one per requester", |s| s.send_to[0] = 0);
        assert_breaks("twice or out of order", |s| {
            s.pack_slot.swap(1, 2);
            s.pack_src.swap(1, 2);
        });
        assert_breaks("a slot it does not own", |s| s.pack_slot[2] = 2);
        assert_breaks("source offset differs", |s| s.pack_src[0] = 9);
    }

    #[test]
    fn difference_keeps_only_uncovered_sources() {
        let resident = simple_schedule();
        let later = schedule(2, &[vec![(1, 5), (1, 7)], vec![(0, 0), (0, 2)]]);
        let diff = later.difference(&resident);
        assert_eq!(diff.ghost_sources(0).collect::<Vec<_>>(), vec![(1, 7)]);
        assert_eq!(diff.ghost_sources(1).collect::<Vec<_>>(), vec![(0, 2)]);
        // The send side is rebuilt consistently for the kept subset.
        assert_eq!(diff.message_count(), 2);
        assert_eq!(diff.total_ghosts(), 2);
        // Nothing new → empty difference, zero messages.
        let nothing = resident.difference(&resident);
        assert_eq!(nothing.total_ghosts(), 0);
        assert_eq!(nothing.message_count(), 0);
        // Empty resident → the difference is the schedule itself.
        let empty = schedule(2, &[Vec::new(), Vec::new()]);
        assert_eq!(later.difference(&empty), later);
    }

    #[test]
    fn merge_incremental_preserves_resident_slots_and_appends() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let resident = schedule(2, &[vec![(1, 5), (1, 3)], vec![]]);
        let newer = schedule(2, &[vec![(1, 3), (1, 7), (1, 0)], vec![(0, 2)]]);
        let (merged, map) = resident.merge_incremental(&newer);
        // Resident slots keep their numbers (original, even unsorted, order);
        // newer-only sources are appended in canonical order.
        assert_eq!(
            merged.ghost_sources(0).collect::<Vec<_>>(),
            vec![(1, 5), (1, 3), (1, 0), (1, 7)]
        );
        assert_eq!(merged.ghost_sources(1).collect::<Vec<_>>(), vec![(0, 2)]);
        // The map sends each of newer's slots to the union slot holding the
        // same source.
        let merged0: Vec<_> = merged.ghost_sources(0).collect();
        for (slot, (o, s)) in newer.ghost_sources(0).enumerate() {
            assert_eq!(merged0[map[0][slot] as usize], (o, s));
        }
        assert_eq!(map[0], vec![1, 3, 2]);
        assert_eq!(map[1], vec![0]);
        // Re-merging the same schedule appends nothing and maps into the
        // existing slots.
        let (again, map2) = merged.merge_incremental(&newer);
        assert_eq!(again, merged);
        assert_eq!(map2, map);
        // One gather of the union serves both loops: each reads its values
        // through its own map (the resident side's is the identity).
        use crate::executor::{gather_inline, Landing};
        use crate::{darray::DistArray, dist::Distribution};
        let x = DistArray::from_global(
            "x",
            Distribution::block(16, 2),
            &(0..16).map(|i| i as f64 * 10.0).collect::<Vec<_>>(),
        );
        let mut ghosts: Vec<Vec<f64>> = (0..2).map(|p| vec![0.0; merged.ghost_count(p)]).collect();
        gather_inline(&mut m, &merged, &x, Landing::Offset(&[0, 0]), &mut ghosts);
        for p in 0..2 {
            for (slot, (o, s)) in resident.ghost_sources(p).enumerate() {
                assert_eq!(ghosts[p][slot], x.local(o as usize)[s as usize]);
            }
            for (slot, (o, s)) in newer.ghost_sources(p).enumerate() {
                let at = map[p][slot] as usize;
                assert_eq!(ghosts[p][at], x.local(o as usize)[s as usize]);
            }
        }
    }

    /// A region as binds built it before the region kept an index: the
    /// resident union and its chunk bounds, grown by `difference` and
    /// `merge_incremental`.
    struct OracleRegion {
        resident: CommSchedule,
        chunk_off: Vec<Vec<u32>>,
    }

    /// What one bind returns: chunk, deps, slot map, diff and base.
    type Bound = (Option<u32>, Vec<u32>, Vec<Vec<u32>>, CommSchedule, Vec<u32>);

    impl OracleRegion {
        fn new(nprocs: usize) -> Self {
            OracleRegion {
                resident: schedule(nprocs, &vec![Vec::new(); nprocs]),
                chunk_off: vec![vec![0]; nprocs],
            }
        }

        fn bind(&mut self, schedule: &CommSchedule) -> Bound {
            let nprocs = schedule.nprocs();
            let diff = schedule.difference(&self.resident);
            let (merged, slot_map) = self.resident.merge_incremental(schedule);
            let base: Vec<u32> = (0..nprocs)
                .map(|p| self.resident.ghost_count(p) as u32)
                .collect();
            let mut needed = vec![false; self.chunk_off[0].len() - 1];
            for p in 0..nprocs {
                let offs = &self.chunk_off[p];
                for &slot in &slot_map[p] {
                    if slot < base[p] {
                        needed[offs.partition_point(|&o| o <= slot) - 1] = true;
                    }
                }
            }
            let deps = (0..needed.len() as u32)
                .filter(|&c| needed[c as usize])
                .collect();
            let chunk = (diff.total_ghosts() > 0).then(|| {
                for p in 0..nprocs {
                    self.chunk_off[p].push(merged.ghost_count(p) as u32);
                }
                needed.len() as u32
            });
            self.resident = merged;
            (chunk, deps, slot_map, diff, base)
        }
    }

    #[test]
    fn region_bind_is_the_difference_and_merge_composition() {
        // Seeded sequences of 1 to 4 schedules on 1 to 8 ranks, each after
        // the first a repeat, a subset, a superset or a disjoint set of an
        // earlier one, or fresh; rows sorted as the inspector leaves them,
        // or shuffled. Every bind's chunk, deps, slot map, diff and base,
        // and the resident union after it, must be the old composition's.
        use crate::{dad::Dad, dist::Distribution, reuse::ReuseRegistry};
        let mut state = 0xD1B5_4A32_D192_ED03u64;
        let mut next = move |m: usize| -> usize {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % m as u64) as usize
        };
        // A row of distinct off-rank sources for rank p of `nprocs`, offsets
        // from `lo` up.
        let row = |next: &mut dyn FnMut(usize) -> usize, nprocs: usize, p: usize, lo: u32| {
            let mut row: Vec<(u32, u32)> = (0..next(12))
                .map(|_| (next(nprocs) as u32, lo + next(16) as u32))
                .filter(|&(o, _)| o as usize != p)
                .collect();
            row.sort_unstable();
            row.dedup();
            row
        };
        for case in 0..400 {
            let nprocs = 1 + next(8);
            let mut rows: Vec<Vec<Vec<(u32, u32)>>> = Vec::new();
            for _ in 0..1 + next(4) {
                let kind = if rows.is_empty() { 0 } else { next(5) };
                let earlier = (!rows.is_empty()).then(|| rows[next(rows.len())].clone());
                let lo = 100 * rows.len() as u32 + 100;
                let sched: Vec<Vec<(u32, u32)>> = (0..nprocs)
                    .map(|p| match (kind, &earlier) {
                        (1, Some(e)) => e[p].clone(),
                        (2, Some(e)) => e[p].iter().copied().filter(|_| next(3) > 0).collect(),
                        (3, Some(e)) => {
                            let mut grown = e[p].clone();
                            grown.extend(row(&mut next, nprocs, p, 0));
                            grown.sort_unstable();
                            grown.dedup();
                            grown
                        }
                        (4, _) => row(&mut next, nprocs, p, lo),
                        _ => row(&mut next, nprocs, p, 0),
                    })
                    .collect();
                rows.push(sched);
            }
            let dad = Dad::of(&Distribution::block(64, nprocs));
            let (mut reg, mut oracle) = (ReuseRegistry::new(), OracleRegion::new(nprocs));
            for (at, sched) in rows.iter().enumerate() {
                let mut sched = sched.clone();
                if next(3) == 0 {
                    for row in &mut sched {
                        for i in (1..row.len()).rev() {
                            row.swap(i, next(i + 1));
                        }
                    }
                }
                let s = schedule(nprocs, &sched);
                let what = format!("case {case}: bind {at} of {} on {nprocs} ranks", rows.len());
                let got = reg.region_bind(dad, &s);
                let want = oracle.bind(&s);
                assert_eq!(
                    (got.chunk, got.deps, got.slot_map, got.diff, got.base),
                    want,
                    "{what}"
                );
                assert_eq!(
                    reg.region(dad).unwrap().resident(),
                    &oracle.resident,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn merged_exchange_folds_pairs_and_tags_shared_ones() {
        let mut m = Machine::new(MachineConfig::unit(2));
        let a = CommSchedule::from_csr_parts(2, vec![0, 2, 2], vec![1, 1], vec![3, 5]);
        let b = CommSchedule::from_csr_parts(2, vec![0, 1, 2], vec![1, 0], vec![7, 0]);
        let (messages, words) = charge_request_exchange(&mut m, &[&a, &b]);
        // Pair (owner 1 → requester 0) is shared by both parts: one message,
        // tagged segments (1 length word each). Pair (0 → 1) only appears in
        // b: untagged. Separate exchanges would have cost 3 messages.
        assert_eq!(messages, 2);
        assert_eq!(words, (1 + 2) + (1 + 1) + 1);
        assert_eq!(m.stats().grand_totals().messages, 2);
        assert!(messages < a.message_count() + b.message_count());
    }
}
