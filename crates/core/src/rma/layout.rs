//! On-device layout of an RMA window object. A PSCW cell is the
//! `(value, stamp)` entry of `cxl_shm::slots`, holding the pair's epoch
//! number; cells lie in rows by *reader*, so what a rank polls sits side by
//! side. Bakery locks and fence slots occupy whole cache lines.

use cxl_shm::slots::SLOT_DONE_ENTRY;
use cxl_shm::CACHE_LINE_SIZE;

use crate::barrier::SeqBarrier;
use crate::rma::BakeryLock;
use crate::types::Rank;

/// Byte layout of one window object shared by `ranks` ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowLayout {
    /// Number of ranks sharing the window.
    pub ranks: usize,
    /// Bytes exposed per rank (cache-line aligned).
    pub size_per_rank: usize,
}

/// Magic value stored in the ready flag once the window is formatted.
pub const WINDOW_READY_MAGIC: u64 = 0x57494E5F52445921; // "WIN_RDY!"

impl WindowLayout {
    /// Build a layout, rounding the per-rank size up to the cache line.
    pub fn new(ranks: usize, size_per_rank: usize) -> Self {
        WindowLayout {
            ranks,
            size_per_rank: size_per_rank.div_ceil(CACHE_LINE_SIZE).max(1) * CACHE_LINE_SIZE,
        }
    }

    /// Offset of rank `r`'s window data region.
    pub fn data_offset(&self, r: Rank) -> u64 {
        (r * self.size_per_rank) as u64
    }

    /// Cell (`row`, `col`) of PSCW matrix `matrix` (0: post, 1: complete).
    fn cell_offset(&self, matrix: usize, row: Rank, col: Rank) -> u64 {
        let cell = (matrix * self.ranks + row) * self.ranks + col;
        self.data_offset(self.ranks) + (cell * SLOT_DONE_ENTRY) as u64
    }

    /// Offset of the PSCW *post* cell `target` stores for `origin` to observe.
    pub fn post_flag_offset(&self, origin: Rank, target: Rank) -> u64 {
        self.cell_offset(0, origin, target)
    }

    /// Offset of the PSCW *complete* cell `origin` stores for `target` to
    /// observe.
    pub fn complete_flag_offset(&self, target: Rank, origin: Rank) -> u64 {
        self.cell_offset(1, target, origin)
    }

    /// Base offset of the bakery lock protecting `target`'s window.
    pub fn lock_base(&self, target: Rank) -> u64 {
        // Past both matrices, on the next line boundary.
        let locks = self
            .cell_offset(2, 0, 0)
            .next_multiple_of(CACHE_LINE_SIZE as u64);
        locks + (target * BakeryLock::required_bytes(self.ranks)) as u64
    }

    /// Base offset of the fence barrier array.
    pub fn fence_base(&self) -> u64 {
        self.lock_base(self.ranks)
    }

    /// Offset of the ready flag raised by the allocating rank.
    pub fn ready_offset(&self) -> u64 {
        self.fence_base() + SeqBarrier::required_bytes(self.ranks) as u64
    }

    /// Total bytes the window object occupies.
    pub fn total_bytes(&self) -> usize {
        self.ready_offset() as usize + CACHE_LINE_SIZE
    }

    /// Bytes of the synchronization region (everything after the data region).
    pub fn sync_bytes(&self) -> usize {
        self.total_bytes() - self.ranks * self.size_per_rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_rank_size_is_line_aligned() {
        let l = WindowLayout::new(4, 100);
        assert_eq!(l.size_per_rank, 128);
        let l = WindowLayout::new(4, 0);
        assert_eq!(l.size_per_rank, 64);
    }

    #[test]
    fn regions_are_ordered_and_disjoint() {
        let l = WindowLayout::new(4, 4096);
        // Data regions.
        for r in 0..4 {
            assert_eq!(l.data_offset(r), (r * 4096) as u64);
        }
        let data_end = 4 * 4096u64;
        // Every post flag sits after the data region and before the complete flags.
        let mut max_post = 0;
        for o in 0..4 {
            for t in 0..4 {
                let off = l.post_flag_offset(o, t);
                assert!(off >= data_end);
                max_post = max_post.max(off);
            }
        }
        let min_complete = (0..4)
            .flat_map(|t| (0..4).map(move |o| (t, o)))
            .map(|(t, o)| l.complete_flag_offset(t, o))
            .min()
            .unwrap();
        assert!(min_complete > max_post);
        // Locks after completes, fence after locks, ready last.
        assert!(l.lock_base(0) > min_complete);
        assert!(l.fence_base() > l.lock_base(3));
        assert!(l.ready_offset() >= l.fence_base() + SeqBarrier::required_bytes(4) as u64);
        assert_eq!(l.total_bytes() as u64, l.ready_offset() + 64);
    }

    #[test]
    fn flag_offsets_are_unique() {
        let l = WindowLayout::new(5, 256);
        let mut offsets = std::collections::HashSet::new();
        for a in 0..5 {
            for b in 0..5 {
                assert!(offsets.insert(l.post_flag_offset(a, b)));
                assert!(offsets.insert(l.complete_flag_offset(a, b)));
            }
        }
        // 2 matrices of 25 slots each.
        assert_eq!(offsets.len(), 50);
    }

    #[test]
    fn locks_and_fence_slots_own_their_cache_lines() {
        // 3 and 5 ranks: the two flag matrices (288 B, 800 B) end off a line
        // boundary and a lock's slots do not fill its last line.
        for ranks in [2, 3, 5, 9] {
            let l = WindowLayout::new(ranks, 256);
            let matrices_end = l.complete_flag_offset(ranks - 1, ranks - 1) + 16;
            assert!(l.lock_base(0) >= matrices_end && l.lock_base(0) < matrices_end + 64);
            for t in 0..ranks {
                assert_eq!(l.lock_base(t) % 64, 0, "{ranks} ranks, lock {t}");
                let next = l.lock_base(t) + BakeryLock::required_bytes(ranks) as u64;
                assert!(next >= l.lock_base(t) + 16 * ranks as u64);
                assert_eq!(next, l.lock_base(t + 1));
            }
            assert_eq!(l.fence_base(), l.lock_base(ranks));
        }
    }

    #[test]
    fn a_readers_cells_are_contiguous() {
        // Rows by reader: the posts an origin polls, and the completes a
        // target polls, are adjacent 16-byte cells.
        let l = WindowLayout::new(4, 64);
        for reader in 0..4 {
            for writer in 1..4 {
                assert_eq!(
                    l.post_flag_offset(reader, writer),
                    l.post_flag_offset(reader, writer - 1) + 16
                );
                assert_eq!(
                    l.complete_flag_offset(reader, writer),
                    l.complete_flag_offset(reader, writer - 1) + 16
                );
            }
        }
    }

    #[test]
    fn sync_bytes_consistent() {
        let l = WindowLayout::new(8, 1024);
        assert_eq!(l.total_bytes(), 8 * 1024 + l.sync_bytes());
    }
}
