//! Barriers: the CXL sequence-number barrier (Section 3.4) for the full world,
//! and a point-to-point dissemination barrier for arbitrary communicator
//! groups.
//!
//! The classic sense-reversing barrier increments a shared counter atomically —
//! unavailable across hosts on the CXL pooled memory. cMPI's replacement gives
//! every rank its own slot in a shared *barrier array*: to enter the barrier a
//! rank increments its private sequence number, publishes it to its own slot
//! (a plain non-temporal store — single writer per slot, so no atomicity is
//! needed), and then spin-waits until every other rank's published sequence
//! number is at least as large as its own.
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

use crate::spin::{PoisonFlag, SpinWait};
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
    /// Universe poison flag; a peer death aborts the wait with `PeerDead`.
    poison: PoisonFlag,
}

impl SeqBarrier {
    /// Bytes required for a barrier over `ranks` ranks.
    pub fn required_bytes(ranks: usize) -> usize {
        ranks * BARRIER_SLOT_STRIDE as usize
    }

    /// Attach rank `rank` to the barrier array at `base` within `obj`.
    pub fn new(obj: ShmObject, base: u64, rank: Rank, ranks: usize) -> Self {
        SeqBarrier {
            obj,
            base,
            rank,
            ranks,
            seq: 0,
            poison: PoisonFlag::new(),
        }
    }

    /// Attach the universe's poison flag so waits inside [`SeqBarrier::enter`]
    /// abort when a peer dies (a fresh, never-raised flag is used otherwise).
    pub fn with_poison(mut self, poison: PoisonFlag) -> Self {
        self.poison = poison;
        self
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

    /// Enter the barrier: publish the incremented sequence number and wait for
    /// every other rank to reach it. `clock` is advanced by one `line` access
    /// for the publication and one per peer slot, then merged with the latest
    /// peer timestamp observed.
    pub fn enter(&mut self, clock: &mut SimClock, line: SimNs) -> Result<()> {
        self.seq += 1;
        clock.advance(self.ranks as f64 * line);
        store_stamped(
            &self.obj,
            self.cell(self.rank, self.seq),
            self.seq,
            clock.now(),
        )?;

        // Wait for everyone else and merge their timestamps.
        let mut latest = clock.now();
        for r in (0..self.ranks).filter(|&r| r != self.rank) {
            let mut backoff = SpinWait::new();
            loop {
                if let Some(ts) = load_stamped(&self.obj, self.cell(r, self.seq), self.seq)? {
                    latest = latest.max(ts);
                    break;
                }
                if let Err(e) = backoff.wait(&self.poison) {
                    // A recorded (survivable) death only dooms this wait if
                    // the straggler we are spinning on is the dead rank — it
                    // will never publish. Faults fire at transfer operations,
                    // never inside a barrier wait, so a dead rank whose slot
                    // already reached `self.seq` genuinely passed this
                    // barrier and cannot block it; keep spinning for the live
                    // stragglers so ranks that have not installed an error
                    // handler yet (e.g. the startup barrier) don't abort a
                    // completable barrier. Hard poison still aborts.
                    if self.poison.is_poisoned() || self.poison.is_dead(r) {
                        return Err(e);
                    }
                }
            }
        }
        clock.merge(latest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_shm::{ArenaConfig, CxlShmArena, CxlView, DaxDevice, HostCache};

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
        let root_barrier = SeqBarrier::new(obj, 0, 0, ranks);
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
            barriers.push(SeqBarrier::new(obj, 0, r, ranks));
        }
        barriers
    }

    #[test]
    fn single_rank_barrier_is_trivial() {
        let mut barriers = make_barriers(1);
        let mut clock = SimClock::new();
        barriers[0].enter(&mut clock, 0.0).unwrap();
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
                        b.enter(&mut clock, 10.0).unwrap();
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
        let mut b0 = barriers.remove(0).with_poison(poison.clone());
        // Rank 1 never enters; poison the universe from "its" thread shortly
        // after rank 0 starts waiting.
        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            poison.poison("rank 1 panicked");
        });
        let mut clock = SimClock::new();
        let err = b0.enter(&mut clock, 0.0).unwrap_err();
        assert!(matches!(err, MpiError::PeerDead(_)), "got {err:?}");
        t.join().unwrap();
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
            b0.enter(&mut clock, 0.0).unwrap();
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
            b1.enter(&mut clock, 0.0).unwrap();
        });
        t0.join().unwrap();
        t1.join().unwrap();
    }
}
