//! Object-region allocator for the CXL SHM Arena.
//!
//! SHM objects are carved out of the `shm_objects` region contiguously
//! (Section 3.1). To support the full object life cycle (`create` /
//! `destroy`) the arena keeps a small allocator state in CXL memory:
//! a bump pointer for never-used space plus a bounded free list of
//! extents returned by `destroy`, with coalescing of adjacent extents.
//!
//! Every allocation is aligned to the cache-line size so that flushes and
//! non-temporal accesses on distinct objects never share a line
//! (Section 3.7, "we align each CXL SHM object to the cacheline size").
//!
//! The allocator state lives in shared CXL memory and is read/written with the
//! software-coherence protocol, so any host can allocate or free. *Concurrent*
//! structural modifications from different hosts must be serialized: both
//! `allocate` and `free` are read-modify-write sequences over the shared bump
//! pointer and free list, and two unsynchronized callers can be handed the
//! same extent. The arena serializes them under its cross-host directory lock
//! (`create`/`destroy`); callers using the allocator directly must provide
//! equivalent mutual exclusion.

use crate::cache::CACHE_LINE_SIZE;
use crate::coherence::CxlView;
use crate::error::ShmError;
use crate::Result;

/// Persistent allocator state header: `bump: u64 | n_free: u64` followed by
/// `max_free_extents` extent records of `offset: u64 | len: u64`.
const STATE_BUMP: usize = 0;
const STATE_NFREE: usize = 8;
const STATE_EXTENTS: usize = 16;

/// Summary of allocator occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes handed out and not yet freed.
    pub used_bytes: u64,
    /// Bytes available (free-list bytes plus untouched bump space).
    pub free_bytes: u64,
    /// Largest single allocation that could currently succeed.
    pub largest_free: u64,
    /// Number of extents on the free list.
    pub free_extents: usize,
}

/// Free-list allocator whose state lives in CXL shared memory.
#[derive(Clone)]
pub struct ShmAllocator {
    view: CxlView,
    /// Device offset of the allocator state region.
    state_base: usize,
    /// Device offset of the managed object region.
    region_base: usize,
    /// Size of the managed object region.
    region_size: usize,
    max_free_extents: usize,
}

impl std::fmt::Debug for ShmAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmAllocator")
            .field("region_base", &self.region_base)
            .field("region_size", &self.region_size)
            .field("max_free_extents", &self.max_free_extents)
            .finish()
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct AllocState {
    bump: u64,
    extents: Vec<(u64, u64)>,
}

/// Round `size` up to the cache-line granule used for every allocation.
pub fn align_alloc_size(size: usize) -> usize {
    size.div_ceil(CACHE_LINE_SIZE) * CACHE_LINE_SIZE
}

impl ShmAllocator {
    /// Bytes of state storage needed for a given free-list capacity.
    pub fn state_bytes(max_free_extents: usize) -> usize {
        STATE_EXTENTS + max_free_extents * 16
    }

    /// Attach to an allocator whose state lives at `state_base` and which
    /// manages `[region_base, region_base + region_size)`.
    pub fn attach(
        view: CxlView,
        state_base: usize,
        region_base: usize,
        region_size: usize,
        max_free_extents: usize,
    ) -> Result<Self> {
        if max_free_extents == 0 {
            return Err(ShmError::InvalidConfig(
                "max_free_extents must be non-zero".into(),
            ));
        }
        let state_end = state_base + Self::state_bytes(max_free_extents);
        if state_end > view.len() || region_base + region_size > view.len() {
            return Err(ShmError::DeviceTooSmall {
                required: state_end.max(region_base + region_size),
                available: view.len(),
            });
        }
        Ok(ShmAllocator {
            view,
            state_base,
            region_base,
            region_size,
            max_free_extents,
        })
    }

    /// Reset the allocator: empty free list, bump pointer at the region start.
    pub fn format(&self) -> Result<()> {
        self.write_state(&AllocState {
            bump: 0,
            extents: Vec::new(),
        })
    }

    /// Base offset of the managed region (object offsets returned by
    /// [`ShmAllocator::allocate`] are absolute device offsets ≥ this).
    pub fn region_base(&self) -> usize {
        self.region_base
    }

    /// Size of the managed region in bytes.
    pub fn region_size(&self) -> usize {
        self.region_size
    }

    fn read_state(&self) -> Result<AllocState> {
        let mut head = [0u8; 16];
        self.view.read_coherent(self.state_base, &mut head)?;
        let bump = u64::from_le_bytes(head[STATE_BUMP..STATE_BUMP + 8].try_into().unwrap());
        let n_free =
            u64::from_le_bytes(head[STATE_NFREE..STATE_NFREE + 8].try_into().unwrap()) as usize;
        if n_free > self.max_free_extents || bump as usize > self.region_size {
            return Err(ShmError::InvalidHeader(format!(
                "corrupt allocator state: bump={bump} n_free={n_free}"
            )));
        }
        let mut extents = Vec::with_capacity(n_free);
        if n_free > 0 {
            let mut buf = vec![0u8; n_free * 16];
            self.view
                .read_coherent(self.state_base + STATE_EXTENTS, &mut buf)?;
            for i in 0..n_free {
                let off = u64::from_le_bytes(buf[i * 16..i * 16 + 8].try_into().unwrap());
                let len = u64::from_le_bytes(buf[i * 16 + 8..i * 16 + 16].try_into().unwrap());
                extents.push((off, len));
            }
        }
        Ok(AllocState { bump, extents })
    }

    fn write_state(&self, state: &AllocState) -> Result<()> {
        let mut buf = vec![0u8; STATE_EXTENTS + state.extents.len() * 16];
        buf[STATE_BUMP..STATE_BUMP + 8].copy_from_slice(&state.bump.to_le_bytes());
        buf[STATE_NFREE..STATE_NFREE + 8]
            .copy_from_slice(&(state.extents.len() as u64).to_le_bytes());
        for (i, (off, len)) in state.extents.iter().enumerate() {
            buf[STATE_EXTENTS + i * 16..STATE_EXTENTS + i * 16 + 8]
                .copy_from_slice(&off.to_le_bytes());
            buf[STATE_EXTENTS + i * 16 + 8..STATE_EXTENTS + i * 16 + 16]
                .copy_from_slice(&len.to_le_bytes());
        }
        self.view.write_flush(self.state_base, &buf)
    }

    /// Allocate `size` bytes (rounded up to the cache-line granule). Returns
    /// the absolute device offset of the allocation.
    pub fn allocate(&self, size: usize) -> Result<u64> {
        if size == 0 {
            return Err(ShmError::InvalidObjectSize(size));
        }
        let want = align_alloc_size(size) as u64;
        let mut state = self.read_state()?;

        // First fit on the free list.
        if let Some(idx) = state.extents.iter().position(|&(_, len)| len >= want) {
            let (off, len) = state.extents[idx];
            if len == want {
                state.extents.remove(idx);
            } else {
                state.extents[idx] = (off + want, len - want);
            }
            self.write_state(&state)?;
            return Ok(self.region_base as u64 + off);
        }

        // Then from the bump frontier.
        if state.bump + want <= self.region_size as u64 {
            let off = state.bump;
            state.bump += want;
            self.write_state(&state)?;
            return Ok(self.region_base as u64 + off);
        }

        let largest_free = state
            .extents
            .iter()
            .map(|&(_, len)| len)
            .max()
            .unwrap_or(0)
            .max(self.region_size as u64 - state.bump);
        Err(ShmError::OutOfMemory {
            requested: want as usize,
            largest_free: largest_free as usize,
        })
    }

    /// Return an allocation to the allocator. `offset` must be a value
    /// previously returned by [`ShmAllocator::allocate`] with the same `size`.
    pub fn free(&self, offset: u64, size: usize) -> Result<()> {
        if size == 0 {
            return Err(ShmError::InvalidObjectSize(size));
        }
        let len = align_alloc_size(size) as u64;
        let rel = offset
            .checked_sub(self.region_base as u64)
            .ok_or(ShmError::OutOfBounds {
                offset: offset as usize,
                len: size,
                capacity: self.region_size,
            })?;
        if rel + len > self.region_size as u64 {
            return Err(ShmError::OutOfBounds {
                offset: offset as usize,
                len: size,
                capacity: self.region_size,
            });
        }
        let mut state = self.read_state()?;

        // If the block touches the bump frontier, just pull the frontier back.
        if rel + len == state.bump {
            state.bump = rel;
            // The frontier may now touch the highest free extent; keep folding.
            while let Some(idx) = state
                .extents
                .iter()
                .position(|&(off, l)| off + l == state.bump)
            {
                let (off, _) = state.extents.remove(idx);
                state.bump = off;
            }
            return self.write_state(&state);
        }

        // Otherwise insert into the free list, coalescing with neighbours.
        let mut new_off = rel;
        let mut new_len = len;
        // Merge with an extent that ends exactly where this one starts.
        if let Some(idx) = state
            .extents
            .iter()
            .position(|&(off, l)| off + l == new_off)
        {
            let (off, l) = state.extents.remove(idx);
            new_off = off;
            new_len += l;
        }
        // Merge with an extent that starts exactly where this one ends.
        if let Some(idx) = state
            .extents
            .iter()
            .position(|&(off, _)| off == new_off + new_len)
        {
            let (_, l) = state.extents.remove(idx);
            new_len += l;
        }
        if state.extents.len() >= self.max_free_extents {
            return Err(ShmError::InvalidConfig(format!(
                "free list full ({} extents); raise max_free_extents",
                self.max_free_extents
            )));
        }
        state.extents.push((new_off, new_len));
        self.write_state(&state)
    }

    /// Occupancy summary.
    pub fn stats(&self) -> Result<AllocStats> {
        let state = self.read_state()?;
        let free_list_bytes: u64 = state.extents.iter().map(|&(_, len)| len).sum();
        let bump_free = self.region_size as u64 - state.bump;
        let largest_free = state
            .extents
            .iter()
            .map(|&(_, len)| len)
            .max()
            .unwrap_or(0)
            .max(bump_free);
        Ok(AllocStats {
            used_bytes: state.bump - free_list_bytes,
            free_bytes: free_list_bytes + bump_free,
            largest_free,
            free_extents: state.extents.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HostCache;
    use crate::dax::DaxDevice;

    fn make_alloc(region_size: usize, max_extents: usize) -> ShmAllocator {
        let state_bytes = ShmAllocator::state_bytes(max_extents);
        let total = (4096 + state_bytes + region_size).div_ceil(4096) * 4096;
        let dev = DaxDevice::with_alignment("alloc-test", total, 4096).unwrap();
        let view = CxlView::new(dev, HostCache::with_capacity("host0", 4096));
        let a = ShmAllocator::attach(view, 0, 4096, region_size, max_extents).unwrap();
        a.format().unwrap();
        a
    }

    #[test]
    fn align_rounds_to_cache_line() {
        assert_eq!(align_alloc_size(1), 64);
        assert_eq!(align_alloc_size(64), 64);
        assert_eq!(align_alloc_size(65), 128);
        assert_eq!(align_alloc_size(4096), 4096);
    }

    #[test]
    fn bump_allocations_are_disjoint_and_aligned() {
        let a = make_alloc(64 * 1024, 32);
        let x = a.allocate(100).unwrap();
        let y = a.allocate(100).unwrap();
        let z = a.allocate(1).unwrap();
        assert_eq!(x % 64, 0);
        assert_eq!(y % 64, 0);
        assert!(y >= x + 128);
        assert!(z >= y + 128);
    }

    #[test]
    fn free_and_reuse_first_fit() {
        let a = make_alloc(64 * 1024, 32);
        let x = a.allocate(256).unwrap();
        let _y = a.allocate(256).unwrap();
        a.free(x, 256).unwrap();
        // The freed block is reused for an allocation that fits.
        let z = a.allocate(128).unwrap();
        assert_eq!(z, x);
        // The remainder of the freed block is still available.
        let w = a.allocate(128).unwrap();
        assert_eq!(w, x + 128);
    }

    #[test]
    fn free_at_frontier_rolls_back_bump() {
        let a = make_alloc(4096, 16);
        let x = a.allocate(1024).unwrap();
        let y = a.allocate(1024).unwrap();
        a.free(y, 1024).unwrap();
        a.free(x, 1024).unwrap();
        let stats = a.stats().unwrap();
        assert_eq!(stats.used_bytes, 0);
        assert_eq!(stats.free_bytes, 4096);
        assert_eq!(
            stats.free_extents, 0,
            "frontier rollback should not leave extents"
        );
        // Whole region is available again.
        let z = a.allocate(4096).unwrap();
        assert_eq!(z, x);
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let a = make_alloc(8192, 16);
        let x = a.allocate(1024).unwrap();
        let y = a.allocate(1024).unwrap();
        let _hold = a.allocate(1024).unwrap(); // keep the frontier away
        a.free(x, 1024).unwrap();
        a.free(y, 1024).unwrap();
        let stats = a.stats().unwrap();
        assert_eq!(stats.free_extents, 1, "adjacent extents must coalesce");
        // And a 2 KiB allocation fits into the coalesced hole.
        let z = a.allocate(2048).unwrap();
        assert_eq!(z, x);
    }

    #[test]
    fn out_of_memory_reports_largest_free() {
        let a = make_alloc(4096, 16);
        a.allocate(4096).unwrap();
        let err = a.allocate(64).unwrap_err();
        match err {
            ShmError::OutOfMemory { largest_free, .. } => assert_eq!(largest_free, 0),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn zero_sized_requests_rejected() {
        let a = make_alloc(4096, 16);
        assert!(matches!(a.allocate(0), Err(ShmError::InvalidObjectSize(0))));
        assert!(matches!(
            a.free(4096, 0),
            Err(ShmError::InvalidObjectSize(0))
        ));
    }

    #[test]
    fn free_out_of_range_rejected() {
        let a = make_alloc(4096, 16);
        assert!(a.free(0, 64).is_err()); // below region base
        assert!(a.free(4096 + 8192, 64).is_err()); // beyond region
    }

    #[test]
    fn stats_track_usage() {
        let a = make_alloc(16 * 1024, 16);
        let x = a.allocate(4096).unwrap();
        let stats = a.stats().unwrap();
        assert_eq!(stats.used_bytes, 4096);
        assert_eq!(stats.free_bytes, 12 * 1024);
        a.free(x, 4096).unwrap();
        let stats = a.stats().unwrap();
        assert_eq!(stats.used_bytes, 0);
    }

    #[test]
    fn state_visible_across_hosts() {
        let dev = DaxDevice::with_alignment("alloc-xhost", 64 * 1024, 4096).unwrap();
        let view_a = CxlView::new(dev.clone(), HostCache::with_capacity("hostA", 4096));
        let view_b = CxlView::new(dev, HostCache::with_capacity("hostB", 4096));
        let a = ShmAllocator::attach(view_a, 0, 4096, 32 * 1024, 16).unwrap();
        let b = ShmAllocator::attach(view_b, 0, 4096, 32 * 1024, 16).unwrap();
        a.format().unwrap();
        let x = a.allocate(1024).unwrap();
        // Host B sees the updated bump pointer and allocates a disjoint block.
        let y = b.allocate(1024).unwrap();
        assert_ne!(x, y);
        assert!(y >= x + 1024);
    }
}
