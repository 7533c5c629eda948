//! On-device layout of an RMA window object.

use crate::barrier::{SeqBarrier, BARRIER_SLOT_STRIDE};
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
            size_per_rank: size_per_rank.div_ceil(64).max(1) * 64,
        }
    }

    /// Offset of rank `r`'s window data region.
    pub fn data_offset(&self, r: Rank) -> u64 {
        (r * self.size_per_rank) as u64
    }

    /// Offset of the PSCW *post* flag set by `target` for `origin` to observe.
    /// The slot holds `flag: u64 | timestamp: u64`.
    pub fn post_flag_offset(&self, origin: Rank, target: Rank) -> u64 {
        let base = (self.ranks * self.size_per_rank) as u64;
        base + ((origin * self.ranks + target) * 16) as u64
    }

    /// Offset of the PSCW *complete* flag set by `origin` for `target` to
    /// observe. The slot holds `flag: u64 | timestamp: u64`.
    pub fn complete_flag_offset(&self, target: Rank, origin: Rank) -> u64 {
        let post_end =
            (self.ranks * self.size_per_rank) as u64 + (self.ranks * self.ranks * 16) as u64;
        post_end + ((target * self.ranks + origin) * 16) as u64
    }

    /// Base offset of the bakery lock protecting `target`'s window.
    pub fn lock_base(&self, target: Rank) -> u64 {
        let complete_end =
            (self.ranks * self.size_per_rank) as u64 + 2 * (self.ranks * self.ranks * 16) as u64;
        complete_end + (target * self.ranks * 16) as u64
    }

    /// Base offset of the fence barrier array.
    pub fn fence_base(&self) -> u64 {
        (self.ranks * self.size_per_rank) as u64
            + 2 * (self.ranks * self.ranks * 16) as u64
            + (self.ranks * self.ranks * 16) as u64
    }

    /// Offset of the ready flag raised by the allocating rank.
    pub fn ready_offset(&self) -> u64 {
        self.fence_base() + (self.ranks as u64) * BARRIER_SLOT_STRIDE
    }

    /// Total bytes the window object occupies.
    pub fn total_bytes(&self) -> usize {
        self.ready_offset() as usize + 64
    }

    /// Bytes of the synchronization region (everything after the data region).
    pub fn sync_bytes(&self) -> usize {
        self.total_bytes() - self.ranks * self.size_per_rank
    }

    /// Required bytes for the fence barrier array.
    pub fn fence_bytes(&self) -> usize {
        SeqBarrier::required_bytes(self.ranks)
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
        assert!(l.ready_offset() >= l.fence_base() + l.fence_bytes() as u64);
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
    fn sync_bytes_consistent() {
        let l = WindowLayout::new(8, 1024);
        assert_eq!(l.total_bytes(), 8 * 1024 + l.sync_bytes());
    }
}
