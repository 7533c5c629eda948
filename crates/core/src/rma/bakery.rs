//! Lamport bakery lock over CXL shared memory.
//!
//! Passive-target synchronization (`MPI_Win_lock` / `MPI_Win_unlock`) needs
//! mutual exclusion among origin ranks *without the target's participation*.
//! On a conventional system that is a compare-and-swap on the window lock; the
//! CXL pooled memory, however, "often lacks a mechanism to enforce atomicity
//! across nodes" (Section 1), so cMPI must make do with plain loads and
//! stores. Lamport's bakery algorithm provides exactly that: mutual exclusion
//! and FIFO fairness using only single-writer registers — each rank writes only
//! its own slot, `choosing | number`, and reads everyone else's.
//!
//! Slots are 16 bytes, four to a cache line, a lock occupies whole lines, and
//! every access is non-temporal and counted by the line. A rank never loads
//! its own slot and scans the others by line: one load returns four ranks'
//! `(choosing, number)`, the flag read before the ticket as Lamport's proof
//! requires. An uncontended acquisition is two stores (doorway flag; ticket
//! and cleared flag as one line, ticket first) and `2⌈n/4⌉` loads.
//!
//! An acquisition is a run of attempts, and the wait between them is the
//! caller's (`Comm::win_lock` drives the rank's started operations there):
//! the first attempt takes the doorway, and each scans on from the line the
//! last one found someone ahead in. Every re-poll is reported: what a
//! *contended* lock costs in virtual time still depends on how often the
//! host let the waiter retry, and the release carries no timestamp. Stamping
//! it would fix both: the ROADMAP item *Fig 10 through `Comm`, the large-n
//! cliff, and every curve gated* lists it as "a stamped bakery release".

use cxl_shm::{ShmObject, CACHE_LINE_SIZE};

use crate::types::Rank;
use crate::Result;

/// Per-rank slot: `choosing: u64 | number: u64`.
const SLOT_BYTES: usize = 16;
/// Slots one line load returns.
const SLOTS_PER_LINE: usize = CACHE_LINE_SIZE / SLOT_BYTES;

/// An acquisition between two attempts: the base of the lock it is for, the
/// ticket its doorway drew, the first line not yet seen clear, and the device
/// lines accessed so far.
#[derive(Debug, Clone, Copy)]
pub struct Ticket(u64, u64, usize, u64);

/// A bakery lock at a fixed, line-aligned offset of an SHM object. Rank `r`
/// may only call [`BakeryLock::lock`]/[`BakeryLock::unlock`] with its own id.
#[derive(Debug, Clone)]
pub struct BakeryLock {
    obj: ShmObject,
    base: u64,
    ranks: usize,
}

impl BakeryLock {
    /// Bytes required for a lock shared by `ranks` ranks: whole lines (the
    /// slots past `ranks` in the last one stay zero, which reads as idle).
    pub fn required_bytes(ranks: usize) -> usize {
        ranks.div_ceil(SLOTS_PER_LINE) * CACHE_LINE_SIZE
    }

    /// Attach to the lock at `base` within `obj`.
    pub fn new(obj: ShmObject, base: u64, ranks: usize) -> Self {
        BakeryLock { obj, base, ranks }
    }

    fn line_off(&self, line: usize) -> u64 {
        self.base + (line * CACHE_LINE_SIZE) as u64
    }

    fn slot_off(&self, r: Rank) -> u64 {
        self.base + (r * SLOT_BYTES) as u64
    }

    /// One line load: `(rank, choosing, number)` of the four slots of `line`.
    fn load_line(&self, line: usize) -> Result<impl Iterator<Item = (Rank, u64, u64)>> {
        let mut bytes = [0u8; CACHE_LINE_SIZE];
        self.obj.nt_load_at(self.line_off(line), &mut bytes)?;
        let word = move |at: usize| {
            u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte word"))
        };
        Ok((0..SLOTS_PER_LINE).map(move |i| {
            let at = i * SLOT_BYTES;
            (line * SLOTS_PER_LINE + i, word(at), word(at + 8))
        }))
    }

    /// One attempt to acquire the lock as rank `me`, which must not hold it:
    /// once no rank is ahead, the device lines stored or loaded in all (what
    /// the cost model charges), `None` before. One that finds no ticket of
    /// this lock in `ticket` takes the doorway and keeps its ticket there.
    pub fn lock(&self, me: Rank, ticket: &mut Option<Ticket>) -> Result<Option<u64>> {
        let lines = self.ranks.div_ceil(SLOTS_PER_LINE);
        let Ticket(_, number, line, accesses) = match ticket {
            Some(t) if t.0 == self.base => t,
            _ => {
                // Doorway: pick a ticket one larger than every visible ticket
                // (this rank's own is 0 — it does not hold the lock).
                self.obj.nt_store_u64_at(self.slot_off(me), 1)?;
                let mut number = 1u64;
                for line in 0..lines {
                    let others = self.load_line(line)?.filter(|&(r, ..)| r != me);
                    number = others.fold(number, |max, (.., n)| max.max(n + 1));
                }
                // One line, ticket first: whoever sees the flag down sees it.
                self.obj.nt_store_u64_at(self.slot_off(me) + 8, number)?;
                self.obj.nt_store_u64_at(self.slot_off(me), 0)?;
                ticket.insert(Ticket(self.base, number, 0, 2 + lines as u64))
            }
        };
        // Wait until no rank of a line is in its doorway or precedes us.
        let mine = (*number, me);
        let ahead = |(r, choosing, number): (Rank, u64, u64)| {
            r != me && (choosing != 0 || (number != 0 && (number, r) < mine))
        };
        while *line < lines {
            *accesses += 1;
            if self.load_line(*line)?.any(ahead) {
                return Ok(None);
            }
            *line += 1;
        }
        Ok(ticket.take().map(|t| t.3))
    }

    /// Release the lock as rank `me`: one store.
    pub fn unlock(&self, me: Rank) -> Result<()> {
        self.obj.nt_store_u64_at(self.slot_off(me) + 8, 0)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_shm::{ArenaConfig, CxlShmArena, CxlView, DaxDevice, HostCache};

    /// Attempts until `me` holds the lock: the lines they accessed.
    #[allow(clippy::disallowed_methods)]
    fn acquire(lock: &BakeryLock, me: Rank) -> u64 {
        let mut ticket = None;
        loop {
            if let Some(accesses) = lock.lock(me, &mut ticket).unwrap() {
                return accesses;
            }
            std::thread::yield_now();
        }
    }

    fn make_locks(ranks: usize) -> Vec<BakeryLock> {
        let dev = DaxDevice::with_alignment("bakery-test", 4 * 1024 * 1024, 4096).unwrap();
        let root = CxlShmArena::init(
            CxlView::new(dev.clone(), HostCache::with_capacity("host0", 4096)),
            ArenaConfig::small(),
        )
        .unwrap();
        let obj = root
            .create("lock", BakeryLock::required_bytes(ranks) + 64)
            .unwrap();
        // A fresh device is all zeros: every slot idle.
        let mut locks = vec![BakeryLock::new(obj, 0, ranks)];
        for r in 1..ranks {
            let arena = CxlShmArena::attach(CxlView::new(
                dev.clone(),
                HostCache::with_capacity(format!("host{}", r % 2), 4096),
            ))
            .unwrap();
            let obj = arena.open("lock").unwrap();
            locks.push(BakeryLock::new(obj, 0, ranks));
        }
        locks
    }

    #[test]
    fn single_rank_lock_unlock() {
        let locks = make_locks(1);
        acquire(&locks[0], 0);
        locks[0].unlock(0).unwrap();
        acquire(&locks[0], 0);
        locks[0].unlock(0).unwrap();
    }

    /// `ranks` ranks increment a shared non-atomic counter `iters` times each
    /// under the bakery lock; any mutual-exclusion violation loses increments.
    fn contend(ranks: usize, iters: u64) {
        let locks = make_locks(ranks);
        // The counter lives in the same object, after the lock slots.
        let counter_off = BakeryLock::required_bytes(ranks) as u64;
        let handles: Vec<_> = locks
            .into_iter()
            .enumerate()
            .map(|(me, lock)| {
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        acquire(&lock, me);
                        let v = lock.obj.nt_load_u64_at(counter_off).unwrap();
                        lock.obj.nt_store_u64_at(counter_off, v + 1).unwrap();
                        lock.unlock(me).unwrap();
                    }
                    lock
                })
            })
            .collect();
        let locks: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let total = locks[0].obj.nt_load_u64_at(counter_off).unwrap();
        assert_eq!(total, ranks as u64 * iters);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        contend(4, 200);
    }

    #[test]
    fn mutual_exclusion_across_three_lines_of_slots() {
        // Nine ranks: two full lines of slots and one holding a single slot.
        assert_eq!(BakeryLock::required_bytes(9), 3 * CACHE_LINE_SIZE);
        contend(9, 60);
    }

    #[test]
    fn uncontended_lock_is_two_stores_and_two_scans_by_line() {
        for (ranks, lines) in [(1, 4), (2, 4), (4, 4), (5, 6), (8, 6), (9, 8)] {
            let locks = make_locks(ranks);
            let me = ranks - 1;
            let accesses = acquire(&locks[me], me);
            assert_eq!(accesses, lines, "{ranks} ranks");
            locks[me].unlock(me).unwrap();
        }
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn a_waiter_reports_every_repoll() {
        // Rank 0 holds the lock until rank 1 has begun its third line load:
        // the ticket scan and one poll that found rank 0 ahead are behind it,
        // so it reports more than the four accesses of an uncontended lock.
        let mut locks = make_locks(2);
        let (l1, l0) = (locks.pop().unwrap(), locks.pop().unwrap());
        acquire(&l0, 0);
        let view = l1.obj.view().clone();
        let loaded = move || view.counters().nt_bytes_read;
        let before = loaded();
        let waiter = std::thread::spawn(move || acquire(&l1, 1));
        while loaded() < before + 3 * CACHE_LINE_SIZE as u64 {
            std::thread::yield_now();
        }
        l0.unlock(0).unwrap();
        assert!(waiter.join().unwrap() > 4);
    }
}
