//! Barriers: the CXL sequence-number barrier (Section 3.4) for the full world,
//! and a point-to-point dissemination barrier for arbitrary communicator
//! groups.
//!
//! The classic sense-reversing barrier increments a shared counter atomically —
//! unavailable across hosts on the CXL pooled memory. cMPI's replacement gives
//! every rank its own slot in a shared *barrier array*: to enter the barrier a
//! rank increments its private sequence number, publishes it to its own slot
//! (a plain non-temporal store — single writer per slot, so no atomicity is
//! needed), and then waits until every other rank's published sequence
//! number is at least as large as its own. The wait is the caller's: each
//! [`SeqBarrier::attempt`] polls once, so a `Comm` call drives the rank's
//! started operations between attempts.
//!
//! A slot is two `(sequence number, timestamp)` cells in one cache line — the
//! stamped cell every flag in the pool is — used alternately by the parity of
//! the sequence number, so entering the next barrier early cannot replace the
//! stamp a slow rank has yet to read. Entering is one line store and, in the
//! best case, one line load per peer, charged before the stamp is taken; a
//! waiting rank merges the latest stamp it observed, so every rank leaves at
//! the latest arrival — exactly the semantics of a barrier.
//!
//! The [`SeqBarrier`] array is provisioned for the *world* (and per window for
//! fences). Communicators produced by `comm_split`/`comm_dup` barrier on the
//! flag lines of their own shared window when they have one (see
//! [`crate::dataplane`]); the fallback without a window is the dissemination
//! barrier plan of [`crate::coll::build_barrier`] over the communicator's own
//! point-to-point path, which needs no pre-provisioned shared state, works for
//! any rank subset, and inherits the context-id isolation of the
//! communicator's tag space.

use cmpi_fabric::clock::SimNs;
use cmpi_fabric::SimClock;
use cxl_shm::slots::SLOT_DONE_ENTRY;
use cxl_shm::ShmObject;

use crate::spin::PoisonFlag;
use crate::transport::cxl::{load_stamped, store_stamped};
use crate::types::Rank;
use crate::Result;

/// Stride of one rank's slot (its two cells on their own cache line to avoid
/// false sharing between ranks).
const BARRIER_SLOT_STRIDE: u64 = 128;

/// Per-rank handle to a barrier array stored in a CXL SHM object.
#[derive(Debug)]
pub struct SeqBarrier {
    obj: ShmObject,
    base: u64,
    rank: Rank,
    ranks: usize,
    /// This rank's private sequence number.
    seq: u64,
    /// While entry `seq` waits: the latest stamp merged so far and the first
    /// peer not yet seen there.
    waiting: Option<(SimNs, Rank)>,
    /// The rank's failure-state handle: a straggler recorded dead fails an
    /// attempt with `ProcFailed`.
    poison: PoisonFlag,
}

impl SeqBarrier {
    /// Bytes required for a barrier over `ranks` ranks.
    pub fn required_bytes(ranks: usize) -> usize {
        ranks * BARRIER_SLOT_STRIDE as usize
    }

    /// Attach rank `rank` to the barrier array at `base` within `obj`;
    /// [`SeqBarrier::attempt`] looks its stragglers' deaths up in `poison`.
    pub fn new(obj: ShmObject, base: u64, rank: Rank, ranks: usize, poison: PoisonFlag) -> Self {
        SeqBarrier {
            obj,
            base,
            rank,
            ranks,
            seq: 0,
            waiting: None,
            poison,
        }
    }

    /// Zero every slot (called once by the rank that creates the object,
    /// before any rank enters the barrier).
    pub fn format(&self) -> Result<()> {
        for r in 0..self.ranks {
            self.obj
                .nt_store_at(self.slot(r) as u64, &[0u8; 2 * SLOT_DONE_ENTRY])?;
        }
        Ok(())
    }

    fn slot(&self, rank: Rank) -> usize {
        (self.base + rank as u64 * BARRIER_SLOT_STRIDE) as usize
    }

    /// The cell of `rank`'s slot that barrier entry number `seq` uses. Two
    /// alternate: a peer that has left this barrier may enter the next one
    /// (never the one after) before a slow rank reads its slot, and must not
    /// replace the stamp that rank is about to merge with a later one — the
    /// rank's virtual clock would depend on who ran first.
    fn cell(&self, rank: Rank, seq: u64) -> usize {
        self.slot(rank) + SLOT_DONE_ENTRY * (seq & 1) as usize
    }

    /// One attempt at the barrier; `Ok(true)` once every rank has reached
    /// this entry. The first attempt of an entry arrives: it publishes the
    /// incremented sequence number, charging `clock` one `line` access for
    /// the publication and one per peer slot. Every attempt then polls the
    /// peers not yet seen, in rank order, and the one that sees the last of
    /// them merges the latest stamp observed. An attempt that fails leaves
    /// no entry half made: the next one arrives anew.
    pub fn attempt(&mut self, clock: &mut SimClock, line: SimNs) -> Result<bool> {
        let (mut latest, first) = match self.waiting.take() {
            Some(waiting) => waiting,
            None => {
                self.seq += 1;
                clock.advance(self.ranks as f64 * line);
                let cell = self.cell(self.rank, self.seq);
                store_stamped(&self.obj, cell, self.seq, clock.now())?;
                (clock.now(), 0)
            }
        };
        for r in (first..self.ranks).filter(|&r| r != self.rank) {
            // A recorded (survivable) death only dooms this wait if the
            // straggler waited on is the dead rank — it will never publish.
            // Faults fire at transfer operations, never inside a barrier
            // wait, so a dead rank whose slot already reached `self.seq`
            // genuinely passed this barrier and cannot block it; the wait
            // goes on for the live stragglers so ranks that have not
            // installed an error handler yet (e.g. the startup barrier) don't
            // abort a completable barrier. Hard poison is the waiter's
            // check. The death is looked up before the cell is loaded: a
            // rank records its death after its arrival, so a rank found dead
            // whose cell is still down never arrived — looked up after, it
            // may have arrived, passed and died in between.
            let alive = self.poison.check_alive(r);
            match load_stamped(&self.obj, self.cell(r, self.seq), self.seq)? {
                Some(ts) => latest = latest.max(ts),
                None => {
                    alive?;
                    self.waiting = Some((latest, r));
                    return Ok(false);
                }
            }
        }
        clock.merge(latest);
        Ok(true)
    }

    /// Whether an entry has arrived and waits for peers (its next attempt
    /// polls them, without arriving again).
    pub fn is_waiting(&self) -> bool {
        self.waiting.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spin::{block_until, WaitSite};
    use cxl_shm::{ArenaConfig, CxlShmArena, CxlView, DaxDevice, HostCache};

    /// Attempts until every rank reached the entry, waiting as the world
    /// barrier's `Comm` call does (the `Barrier` site, hard poison only).
    fn enter(b: &mut SeqBarrier, clock: &mut SimClock, line: SimNs) -> Result<()> {
        let poison = b.poison.clone();
        block_until(WaitSite::Barrier, &poison, || {
            Ok(b.attempt(clock, line)?.then_some(()).into())
        })
    }

    fn make_barriers(ranks: usize) -> Vec<SeqBarrier> {
        let dev = DaxDevice::with_alignment("barrier-test", 4 * 1024 * 1024, 4096).unwrap();
        let root_arena = CxlShmArena::init(
            CxlView::new(dev.clone(), HostCache::with_capacity("host0", 4096)),
            ArenaConfig::small(),
        )
        .unwrap();
        let obj = root_arena
            .create("barrier", SeqBarrier::required_bytes(ranks))
            .unwrap();
        let root_barrier = SeqBarrier::new(obj, 0, 0, ranks, PoisonFlag::new());
        root_barrier.format().unwrap();
        let mut barriers = vec![root_barrier];
        for r in 1..ranks {
            // Each rank attaches through its own host view (alternating hosts).
            let host = format!("host{}", r % 2);
            let arena = CxlShmArena::attach(CxlView::new(
                dev.clone(),
                HostCache::with_capacity(host, 4096),
            ))
            .unwrap();
            let obj = arena.open("barrier").unwrap();
            barriers.push(SeqBarrier::new(obj, 0, r, ranks, PoisonFlag::new()));
        }
        barriers
    }

    #[test]
    fn single_rank_barrier_is_trivial() {
        let mut barriers = make_barriers(1);
        let mut clock = SimClock::new();
        enter(&mut barriers[0], &mut clock, 0.0).unwrap();
        assert_eq!(barriers[0].seq, 1);
    }

    #[test]
    fn four_ranks_synchronize_repeatedly() {
        let barriers = make_barriers(4);
        let handles: Vec<_> = barriers
            .into_iter()
            .map(|mut b| {
                std::thread::spawn(move || {
                    let mut clock = SimClock::starting_at((b.rank as f64) * 100.0);
                    for _ in 0..10 {
                        enter(&mut b, &mut clock, 10.0).unwrap();
                    }
                    (b.seq, clock.now())
                })
            })
            .collect();
        for (seq, now) in handles.into_iter().map(|h| h.join().unwrap()) {
            assert_eq!(seq, 10);
            // Every rank leaves every barrier at the latest arrival plus one
            // line store and three line loads, whoever ran first: the slowest
            // starter (300) and ten entries of four accesses each.
            assert_eq!(now, 300.0 + 10.0 * 4.0 * 10.0);
        }
    }

    #[test]
    fn poisoned_barrier_aborts_instead_of_hanging() {
        use crate::error::MpiError;
        let poison = PoisonFlag::new();
        let mut barriers = make_barriers(2);
        let mut b0 = barriers.remove(0);
        b0.poison = poison.clone();
        // Rank 1 never enters; poison the universe from "its" thread shortly
        // after rank 0 starts waiting.
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            poison.poison("rank 1 panicked");
        });
        let mut clock = SimClock::new();
        let err = enter(&mut b0, &mut clock, 0.0).unwrap_err();
        assert!(matches!(err, MpiError::PeerDead(_)), "got {err:?}");
        t.join().unwrap();
    }

    /// Ranks 0 and 2 of a 3-rank barrier whose rank 1 is recorded dead
    /// (after it entered the barrier, or before): rank 0 enters, and rank 2
    /// once rank 0 has waited for it, if it `arrives` at all.
    #[allow(clippy::disallowed_methods)]
    fn enter_beside_a_death(rank1_passed: bool, arrives: bool) -> Result<()> {
        use crate::counters::RankCounters;
        use std::sync::Arc;
        let universe = PoisonFlag::new();
        let counters = Arc::new(RankCounters::default());
        let mut barriers = make_barriers(3);
        let mut b2 = barriers.pop().unwrap();
        let mut b1 = barriers.pop().unwrap();
        let mut b0 = barriers.pop().unwrap();
        b0.poison = universe.for_rank(&counters);
        if rank1_passed {
            // Publish rank 1's arrival without waiting for the others.
            b1.seq += 1;
            store_stamped(&b1.obj, b1.cell(1, b1.seq), b1.seq, 0.0)?;
        }
        universe.mark_dead(1, "killed at send #1");
        let entered = std::thread::spawn(move || enter(&mut b0, &mut SimClock::new(), 0.0));
        if arrives {
            while counters.waits.barrier.get() == 0 {
                std::thread::yield_now();
            }
            enter(&mut b2, &mut SimClock::new(), 0.0)?;
        }
        entered.join().unwrap()
    }

    #[test]
    fn a_straggler_recorded_dead_fails_the_barrier() {
        use crate::error::MpiError;
        let err = enter_beside_a_death(false, false).unwrap_err();
        assert!(
            matches!(&err, MpiError::ProcFailed { dead, .. } if dead == &vec![1]),
            "got {err:?}"
        );
    }

    #[test]
    fn a_death_after_the_barrier_waits_out_the_live_straggler() {
        // Rank 1 passed before it died, so rank 0 waits for rank 2 instead
        // of failing, although its handle has not acknowledged the death.
        enter_beside_a_death(true, true).unwrap();
    }

    #[test]
    fn barrier_enforces_no_early_exit() {
        // Rank 1 delays entering; rank 0 must not exit the barrier before
        // rank 1 has entered. We detect this with a shared flag set by rank 1
        // immediately before entering.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let barriers = make_barriers(2);
        let entered = Arc::new(AtomicBool::new(false));
        let mut iter = barriers.into_iter();
        let mut b0 = iter.next().unwrap();
        let mut b1 = iter.next().unwrap();

        let entered0 = Arc::clone(&entered);
        let t0 = std::thread::spawn(move || {
            let mut clock = SimClock::new();
            enter(&mut b0, &mut clock, 0.0).unwrap();
            assert!(
                entered0.load(Ordering::SeqCst),
                "rank 0 left the barrier before rank 1 entered"
            );
        });
        let entered1 = Arc::clone(&entered);
        let t1 = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            entered1.store(true, Ordering::SeqCst);
            let mut clock = SimClock::new();
            enter(&mut b1, &mut clock, 0.0).unwrap();
        });
        t0.join().unwrap();
        t1.join().unwrap();
    }
}
