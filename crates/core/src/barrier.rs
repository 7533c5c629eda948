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
//! Each slot also carries the publisher's virtual-clock timestamp (two of
//! them, alternating with the parity of the sequence number, so entering the
//! next barrier early cannot overwrite the stamp a slow rank has yet to
//! read); a waiting rank merges the maximum of the timestamps it observed, so
//! the barrier's exit time is the latest arrival — exactly the semantics of a
//! barrier.
//!
//! The [`SeqBarrier`] array is provisioned for the *world* (and per window for
//! fences). Communicators produced by `comm_split`/`comm_dup` barrier on the
//! flag lines of their own shared window when they have one (see
//! [`crate::dataplane`]); the fallback without a window is the dissemination
//! barrier plan of [`crate::coll::build_barrier`] over the communicator's own
//! point-to-point path, which needs no pre-provisioned shared state, works for
//! any rank subset, and inherits the context-id isolation of the
//! communicator's tag space.

use cmpi_fabric::SimClock;
use cxl_shm::ShmObject;

use crate::spin::{PoisonFlag, SpinWait};
use crate::types::Rank;
use crate::Result;

/// Stride of one rank's slot (sequence number + timestamp on their own cache
/// line to avoid false sharing between ranks).
pub const BARRIER_SLOT_STRIDE: u64 = 128;

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
            let slot = self.base + r as u64 * BARRIER_SLOT_STRIDE;
            self.obj.nt_store_u64_at(slot, 0)?;
            self.obj.nt_store_u64_at(slot + 8, 0)?;
            self.obj.nt_store_u64_at(slot + 16, 0)?;
        }
        Ok(())
    }

    fn slot(&self, rank: Rank) -> u64 {
        self.base + rank as u64 * BARRIER_SLOT_STRIDE
    }

    /// Offset, within a slot, of the timestamp of barrier entry number `seq`.
    /// Two stamps alternate: a peer that has left this barrier may enter the
    /// next one (never the one after) before a slow rank reads its slot, and
    /// must not replace the stamp that rank is about to merge with a later
    /// one — the rank's virtual clock would depend on who ran first.
    fn stamp_off(seq: u64) -> u64 {
        8 + 8 * (seq & 1)
    }

    /// Current private sequence number (equals the number of completed
    /// barrier entries).
    pub fn sequence(&self) -> u64 {
        self.seq
    }

    /// Enter the barrier: publish the incremented sequence number and wait for
    /// every other rank to reach it. `clock` is advanced by the publication
    /// cost and merged with the latest peer timestamp observed.
    pub fn enter(&mut self, clock: &mut SimClock) -> Result<()> {
        self.seq += 1;
        let my_slot = self.slot(self.rank);
        // Publish sequence number and timestamp (single writer per slot).
        let stamp = Self::stamp_off(self.seq);
        self.obj
            .nt_store_u64_at(my_slot + stamp, clock.now().to_bits())?;
        self.obj.nt_store_u64_at(my_slot, self.seq)?;

        // Wait for everyone else and merge their timestamps.
        let mut latest = clock.now();
        for r in 0..self.ranks {
            if r == self.rank {
                continue;
            }
            let slot = self.slot(r);
            let mut backoff = SpinWait::new();
            loop {
                let their_seq = self.obj.nt_load_u64_at(slot)?;
                if their_seq >= self.seq {
                    let ts = f64::from_bits(self.obj.nt_load_u64_at(slot + stamp)?);
                    if ts > latest {
                        latest = ts;
                    }
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
        barriers[0].enter(&mut clock).unwrap();
        assert_eq!(barriers[0].sequence(), 1);
    }

    #[test]
    fn four_ranks_synchronize_repeatedly() {
        let barriers = make_barriers(4);
        let handles: Vec<_> = barriers
            .into_iter()
            .map(|mut b| {
                std::thread::spawn(move || {
                    let mut clock = SimClock::starting_at((b.rank as f64) * 100.0);
                    let mut order = Vec::new();
                    for round in 0..10u64 {
                        b.enter(&mut clock).unwrap();
                        order.push(round);
                    }
                    (b.sequence(), clock.now(), order)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for (seq, now, order) in &results {
            assert_eq!(*seq, 10);
            assert_eq!(order.len(), 10);
            // Clock must have merged up to at least the slowest starter (300).
            assert!(*now >= 300.0);
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
        let err = b0.enter(&mut clock).unwrap_err();
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
            b0.enter(&mut clock).unwrap();
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
            b1.enter(&mut clock).unwrap();
        });
        t0.join().unwrap();
        t1.join().unwrap();
    }
}
