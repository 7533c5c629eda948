//! On-device layout of the CXL SHM Arena.
//!
//! The arena maps the whole dax device and divides it into regions
//! (Section 3.1 / Figure 4 of the paper):
//!
//! ```text
//! +-----------+--------------------+---------------+----------------------+
//! |  header   |  metadata region   |  alloc state  |    shm_objects       |
//! | (4 KiB)   | (multi-level hash) |  (free list)  |  (object payloads)   |
//! +-----------+--------------------+---------------+----------------------+
//! ```
//!
//! The header records the arena configuration so that any host attaching to
//! the device later can recompute the same layout. Every region boundary is
//! page (4 KiB) aligned and every metadata slot is cache-line aligned, which
//! keeps flushes cheap and allows non-temporal accesses to individual fields.

use crate::error::ShmError;
use crate::multilevel_hash::{HashConfig, SLOT_SIZE};
use crate::Result;

/// Magic number identifying a formatted arena ("CXLSHMAR" in ASCII-ish hex).
pub const ARENA_MAGIC: u64 = 0xC31A_5113_A2E4_A001;
/// Layout version; bump when the on-device format changes.
pub const ARENA_VERSION: u64 = 1;
/// Bytes reserved for the header region.
pub const HEADER_SIZE: usize = 4096;
/// Alignment of every region boundary.
pub const REGION_ALIGN: usize = 4096;

/// Byte offsets of the header fields.
pub mod header_fields {
    /// Magic number.
    pub const MAGIC: usize = 0;
    /// Layout version.
    pub const VERSION: usize = 8;
    /// Total device size the arena was formatted for.
    pub const DEVICE_SIZE: usize = 16;
    /// Number of hash levels.
    pub const HASH_LEVELS: usize = 24;
    /// Slot count of the first hash level.
    pub const LEVEL1_SLOTS: usize = 32;
    /// Maximum number of free-list extents.
    pub const MAX_FREE_EXTENTS: usize = 40;
    /// Offset of the metadata (hash) region.
    pub const METADATA_OFFSET: usize = 48;
    /// Size of the metadata region.
    pub const METADATA_SIZE: usize = 56;
    /// Offset of the allocator state region.
    pub const ALLOC_STATE_OFFSET: usize = 64;
    /// Size of the allocator state region.
    pub const ALLOC_STATE_SIZE: usize = 72;
    /// Offset of the object region.
    pub const OBJECTS_OFFSET: usize = 80;
    /// Size of the object region.
    pub const OBJECTS_SIZE: usize = 88;
    /// Directory lock word: serializes `create`/`destroy` across hosts via a
    /// device-level compare-exchange (0 = free, 1 = held). The allocator bump
    /// pointer and the hash insert probe are both read-modify-write sequences,
    /// so concurrent creators from different hosts need mutual exclusion.
    pub const DIR_LOCK: usize = 96;
}

fn align_up(value: usize, align: usize) -> usize {
    value.div_ceil(align) * align
}

/// Fully resolved arena layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaLayout {
    /// Total device size in bytes.
    pub device_size: usize,
    /// Hash configuration used for the metadata region.
    pub hash: HashConfig,
    /// Maximum number of extents in the allocator free list.
    pub max_free_extents: usize,
    /// Offset of the metadata (multi-level hash) region.
    pub metadata_offset: usize,
    /// Size of the metadata region in bytes.
    pub metadata_size: usize,
    /// Offset of the allocator state region.
    pub alloc_state_offset: usize,
    /// Size of the allocator state region in bytes.
    pub alloc_state_size: usize,
    /// Offset of the object payload region.
    pub objects_offset: usize,
    /// Size of the object payload region in bytes.
    pub objects_size: usize,
}

impl ArenaLayout {
    /// Compute the layout for a device of `device_size` bytes.
    pub fn compute(
        device_size: usize,
        hash: HashConfig,
        max_free_extents: usize,
    ) -> Result<ArenaLayout> {
        if max_free_extents == 0 {
            return Err(ShmError::InvalidConfig(
                "max_free_extents must be non-zero".into(),
            ));
        }
        let total_slots = hash.total_slots()?;
        let metadata_offset = HEADER_SIZE;
        let metadata_size = align_up(total_slots * SLOT_SIZE, REGION_ALIGN);
        let alloc_state_offset = metadata_offset + metadata_size;
        // Allocator state: bump pointer + extent count + extents (offset,len).
        let alloc_state_size = align_up(16 + max_free_extents * 16, REGION_ALIGN);
        let objects_offset = alloc_state_offset + alloc_state_size;
        if objects_offset >= device_size {
            return Err(ShmError::DeviceTooSmall {
                required: objects_offset + REGION_ALIGN,
                available: device_size,
            });
        }
        let objects_size = device_size - objects_offset;
        Ok(ArenaLayout {
            device_size,
            hash,
            max_free_extents,
            metadata_offset,
            metadata_size,
            alloc_state_offset,
            alloc_state_size,
            objects_offset,
            objects_size,
        })
    }

    /// Minimum device size able to host this configuration with at least
    /// `min_object_bytes` of object space.
    pub fn min_device_size(
        hash: HashConfig,
        max_free_extents: usize,
        min_object_bytes: usize,
    ) -> Result<usize> {
        let total_slots = hash.total_slots()?;
        let metadata_size = align_up(total_slots * SLOT_SIZE, REGION_ALIGN);
        let alloc_state_size = align_up(16 + max_free_extents * 16, REGION_ALIGN);
        Ok(HEADER_SIZE
            + metadata_size
            + alloc_state_size
            + align_up(min_object_bytes, REGION_ALIGN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hash() -> HashConfig {
        HashConfig::new(3, 101).unwrap()
    }

    #[test]
    fn layout_regions_are_ordered_and_aligned() {
        let layout = ArenaLayout::compute(1 << 20, small_hash(), 64).unwrap();
        assert_eq!(layout.metadata_offset, HEADER_SIZE);
        assert_eq!(layout.metadata_offset % REGION_ALIGN, 0);
        assert_eq!(layout.alloc_state_offset % REGION_ALIGN, 0);
        assert_eq!(layout.objects_offset % REGION_ALIGN, 0);
        assert!(layout.alloc_state_offset >= layout.metadata_offset + layout.metadata_size);
        assert!(layout.objects_offset >= layout.alloc_state_offset + layout.alloc_state_size);
        assert_eq!(
            layout.objects_offset + layout.objects_size,
            layout.device_size
        );
    }

    #[test]
    fn layout_rejects_tiny_device() {
        let err = ArenaLayout::compute(8192, small_hash(), 64).unwrap_err();
        assert!(matches!(err, ShmError::DeviceTooSmall { .. }));
    }

    #[test]
    fn layout_rejects_zero_extents() {
        let err = ArenaLayout::compute(1 << 20, small_hash(), 0).unwrap_err();
        assert!(matches!(err, ShmError::InvalidConfig(_)));
    }

    #[test]
    fn min_device_size_is_sufficient() {
        let min = ArenaLayout::min_device_size(small_hash(), 64, 64 * 1024).unwrap();
        let layout = ArenaLayout::compute(min, small_hash(), 64).unwrap();
        assert!(layout.objects_size >= 64 * 1024);
    }

    #[test]
    fn metadata_sized_for_all_slots() {
        let hash = small_hash();
        let layout = ArenaLayout::compute(1 << 20, hash, 64).unwrap();
        assert!(layout.metadata_size >= hash.total_slots().unwrap() * SLOT_SIZE);
    }
}
