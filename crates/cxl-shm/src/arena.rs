//! The CXL SHM Arena: POSIX-SHM-like management of shared data objects on a
//! dax device (Section 3.1, Table 2 of the paper).
//!
//! The arena maps the whole device into the caller's address space (the
//! per-host [`CxlView`]), splits it into a metadata region (a multi-level hash
//! of object descriptors) and an object region, and exposes an API deliberately
//! shaped like POSIX SHM so an MPI library can swap one for the other:
//!
//! | Paper API (Table 2)  | This crate                      |
//! |----------------------|---------------------------------|
//! | `cxl_shm_init`       | [`CxlShmArena::init`] / [`CxlShmArena::attach`] |
//! | `cxl_shm_finalize`   | [`CxlShmArena::finalize`]       |
//! | `cxl_shm_create`     | [`CxlShmArena::create`]         |
//! | `cxl_shm_open`       | [`CxlShmArena::open`]           |
//! | `cxl_shm_destroy`    | [`CxlShmArena::destroy`]        |
//! | `cxl_shm_close`      | [`CxlShmArena::close`]          |
//!
//! Any host may create objects (unlike famfs's master/client split, which the
//! paper calls out as unsuitable for MPI). `create`/`destroy` from different
//! hosts are serialized by a cross-host directory lock — a compare-exchange on
//! a header word, modelling a CXL 3.0 back-invalidate atomic — because the
//! allocator bump pointer and the hash insert probe are read-modify-write
//! sequences that would otherwise alias two concurrently created objects onto
//! one extent. `open`/`lookup` stay lock-free: slot bodies are published
//! before the `used` flag is raised.

use std::sync::Arc;

use crate::alloc::{AllocStats, ShmAllocator};
use crate::coherence::{CxlView, FenceKind};
use crate::error::ShmError;
use crate::layout::{header_fields, ArenaLayout, ARENA_MAGIC, ARENA_VERSION};
use crate::multilevel_hash::{HashConfig, MultiLevelHash, ObjectMeta};
use crate::Result;

/// Arena configuration: hash shape and free-list capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaConfig {
    /// Multi-level hash configuration for the metadata region.
    pub hash: HashConfig,
    /// Maximum number of extents in the allocator free list.
    pub max_free_extents: usize,
}

impl ArenaConfig {
    /// The paper's production configuration (10 hash levels, level 1 capped at
    /// 200,000 slots). The metadata region alone takes ~256 MB — use
    /// [`ArenaConfig::small`] for tests.
    pub fn paper() -> Self {
        ArenaConfig {
            hash: HashConfig::paper(),
            max_free_extents: 4096,
        }
    }

    /// A small configuration suitable for unit tests and examples.
    pub fn small() -> Self {
        ArenaConfig {
            hash: HashConfig::small(),
            max_free_extents: 128,
        }
    }

    /// Configuration sized for `n` expected objects: enough hash slots for a
    /// comfortable load factor and a proportional free list.
    pub fn for_objects(n: usize) -> Self {
        let level1 = (n * 2).max(16);
        ArenaConfig {
            hash: HashConfig {
                levels: 4,
                level1_slots: level1,
            },
            max_free_extents: (n * 2).clamp(64, 1 << 16),
        }
    }
}

impl Default for ArenaConfig {
    fn default() -> Self {
        ArenaConfig::small()
    }
}

/// Handle to an open shared-memory object.
///
/// The handle carries the per-host view, so reads and writes made through it
/// follow the host's cache behaviour; use the `*_coherent`/`*_flush`/`nt_*`
/// accessors for data that must be visible across hosts.
#[derive(Clone)]
pub struct ShmObject {
    /// Shared, so cloning a handle (the transports keep one per queue) never
    /// touches the heap.
    name: Arc<str>,
    /// Absolute device offset of the first payload byte.
    offset: u64,
    size: u64,
    view: CxlView,
    open: bool,
}

impl std::fmt::Debug for ShmObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShmObject")
            .field("name", &self.name)
            .field("offset", &self.offset)
            .field("size", &self.size)
            .field("open", &self.open)
            .finish()
    }
}

impl ShmObject {
    /// Object name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Absolute device offset of the payload.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Payload size in bytes.
    pub fn len(&self) -> u64 {
        self.size
    }

    /// Whether the payload has zero size (never true for a live object).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The per-host view this handle goes through.
    pub fn view(&self) -> &CxlView {
        &self.view
    }

    fn check(&self, at: u64, len: usize) -> Result<()> {
        if !self.open {
            return Err(ShmError::StaleHandle(self.name.to_string()));
        }
        if at.checked_add(len as u64).is_none_or(|end| end > self.size) {
            return Err(ShmError::OutOfBounds {
                offset: at as usize,
                len,
                capacity: self.size as usize,
            });
        }
        Ok(())
    }

    /// Plain (cached) write at an object-relative offset.
    pub fn write_at(&self, at: u64, data: &[u8]) -> Result<()> {
        self.check(at, data.len())?;
        self.view.write((self.offset + at) as usize, data)
    }

    /// Plain (cached) read at an object-relative offset.
    pub fn read_at(&self, at: u64, buf: &mut [u8]) -> Result<()> {
        self.check(at, buf.len())?;
        self.view.read((self.offset + at) as usize, buf)
    }

    /// Coherent publish (write + flush + fence) at an object-relative offset.
    pub fn write_flush_at(&self, at: u64, data: &[u8]) -> Result<()> {
        self.check(at, data.len())?;
        self.view.write_flush((self.offset + at) as usize, data)
    }

    /// Coherent read (fence + flush + read) at an object-relative offset.
    pub fn read_coherent_at(&self, at: u64, buf: &mut [u8]) -> Result<()> {
        self.check(at, buf.len())?;
        self.view.read_coherent((self.offset + at) as usize, buf)
    }

    /// Non-temporal store stream of raw bytes at an object-relative offset:
    /// bypasses the host cache, so nothing is left to flush.
    pub fn nt_store_at(&self, at: u64, data: &[u8]) -> Result<()> {
        self.check(at, data.len())?;
        self.view.nt_store((self.offset + at) as usize, data)
    }

    /// Non-temporal load of raw bytes at an object-relative offset (a control
    /// line: a flag cell with its inline payload, a done cell).
    pub fn nt_load_at(&self, at: u64, buf: &mut [u8]) -> Result<()> {
        self.check(at, buf.len())?;
        self.view.nt_load((self.offset + at) as usize, buf)
    }

    /// Load fence, then a non-temporal load of raw bytes at an
    /// object-relative offset: reads the device, never a stale cached copy,
    /// and leaves no line behind to invalidate later.
    pub fn nt_load_fenced_at(&self, at: u64, buf: &mut [u8]) -> Result<()> {
        self.check(at, buf.len())?;
        self.view.fence(FenceKind::Lfence);
        self.view.nt_load((self.offset + at) as usize, buf)
    }

    /// Non-temporal store of a `u64` flag at an object-relative offset.
    pub fn nt_store_u64_at(&self, at: u64, value: u64) -> Result<()> {
        self.check(at, 8)?;
        self.view.nt_store_u64((self.offset + at) as usize, value)
    }

    /// Non-temporal load of a `u64` flag at an object-relative offset.
    pub fn nt_load_u64_at(&self, at: u64) -> Result<u64> {
        self.check(at, 8)?;
        self.view.nt_load_u64((self.offset + at) as usize)
    }

    /// Non-temporal atomic fetch-OR of a `u64` word at an 8-byte-aligned
    /// object-relative offset (objects are cache-line aligned, so object
    /// alignment carries through to the device). Returns the previous value.
    pub fn nt_fetch_or_u64_at(&self, at: u64, bits: u64) -> Result<u64> {
        self.check(at, 8)?;
        self.view.nt_fetch_or_u64((self.offset + at) as usize, bits)
    }

    /// Non-temporal atomic exchange of a `u64` word at an 8-byte-aligned
    /// object-relative offset, returning the previous value.
    pub fn nt_swap_u64_at(&self, at: u64, value: u64) -> Result<u64> {
        self.check(at, 8)?;
        self.view.nt_swap_u64((self.offset + at) as usize, value)
    }

    /// Non-temporal atomic fetch-add of a `u64` word at an 8-byte-aligned
    /// object-relative offset, returning the previous value.
    pub fn nt_fetch_add_u64_at(&self, at: u64, delta: u64) -> Result<u64> {
        self.check(at, 8)?;
        self.view
            .nt_fetch_add_u64((self.offset + at) as usize, delta)
    }

    /// Non-temporal atomic compare-exchange of a `u64` word at an
    /// 8-byte-aligned object-relative offset: `Ok(previous)` on success,
    /// `Err(actual)` when the word held something other than `current`.
    pub fn nt_compare_exchange_u64_at(
        &self,
        at: u64,
        current: u64,
        new: u64,
    ) -> Result<std::result::Result<u64, u64>> {
        self.check(at, 8)?;
        self.view
            .nt_compare_exchange_u64((self.offset + at) as usize, current, new)
    }

    /// Spin with non-temporal loads until the flag at `at` satisfies `pred`.
    pub fn nt_spin_until_at(&self, at: u64, pred: impl FnMut(u64) -> bool) -> Result<u64> {
        self.check(at, 8)?;
        self.view.nt_spin_until((self.offset + at) as usize, pred)
    }

    fn invalidate(&mut self) {
        self.open = false;
    }
}

/// The CXL SHM Arena: one per host per device.
#[derive(Clone)]
pub struct CxlShmArena {
    view: CxlView,
    layout: ArenaLayout,
    hash: MultiLevelHash,
    alloc: ShmAllocator,
}

impl std::fmt::Debug for CxlShmArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CxlShmArena")
            .field("device", &self.view.device().name())
            .field("layout", &self.layout)
            .finish()
    }
}

impl CxlShmArena {
    /// Format the device and return an arena handle ("the initialising host").
    ///
    /// Exactly one host should call this; every other host calls
    /// [`CxlShmArena::attach`] (or [`CxlShmArena::attach_wait`]) afterwards.
    /// This mirrors the MPI usage in the paper where the root rank creates
    /// shared structures and broadcasts their names.
    pub fn init(view: CxlView, config: ArenaConfig) -> Result<Self> {
        let layout = ArenaLayout::compute(view.len(), config.hash, config.max_free_extents)?;
        let arena = Self::assemble(view, layout)?;
        arena.hash.format()?;
        arena.alloc.format()?;
        arena.write_header()?;
        Ok(arena)
    }

    /// Attach to an already-formatted device. Fails with
    /// [`ShmError::InvalidHeader`] if no valid header is present.
    pub fn attach(view: CxlView) -> Result<Self> {
        let layout = Self::read_header(&view)?;
        Self::assemble(view, layout)
    }

    /// Attach, spinning until some other host finishes formatting the device.
    /// `max_spins` bounds the wait (use e.g. 1_000_000 for tests).
    pub fn attach_wait(view: CxlView, max_spins: u64) -> Result<Self> {
        let mut spins = 0u64;
        loop {
            match Self::read_header(&view) {
                Ok(layout) => return Self::assemble(view, layout),
                Err(_) if spins < max_spins => {
                    spins += 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn assemble(view: CxlView, layout: ArenaLayout) -> Result<Self> {
        let hash = MultiLevelHash::attach(view.clone(), layout.metadata_offset, layout.hash)?;
        let alloc = ShmAllocator::attach(
            view.clone(),
            layout.alloc_state_offset,
            layout.objects_offset,
            layout.objects_size,
            layout.max_free_extents,
        )?;
        Ok(CxlShmArena {
            view,
            layout,
            hash,
            alloc,
        })
    }

    fn write_header(&self) -> Result<()> {
        use header_fields as f;
        let l = &self.layout;
        let fields: [(usize, u64); 13] = [
            (f::VERSION, ARENA_VERSION),
            (f::DEVICE_SIZE, l.device_size as u64),
            (f::HASH_LEVELS, l.hash.levels as u64),
            (f::LEVEL1_SLOTS, l.hash.level1_slots as u64),
            (f::MAX_FREE_EXTENTS, l.max_free_extents as u64),
            (f::METADATA_OFFSET, l.metadata_offset as u64),
            (f::METADATA_SIZE, l.metadata_size as u64),
            (f::ALLOC_STATE_OFFSET, l.alloc_state_offset as u64),
            (f::ALLOC_STATE_SIZE, l.alloc_state_size as u64),
            (f::OBJECTS_OFFSET, l.objects_offset as u64),
            (f::OBJECTS_SIZE, l.objects_size as u64),
            (f::DIR_LOCK, 0),
            // Magic written last: it publishes the header.
            (f::MAGIC, ARENA_MAGIC),
        ];
        for (off, val) in fields {
            self.view.nt_store_u64(off, val)?;
        }
        Ok(())
    }

    fn read_header(view: &CxlView) -> Result<ArenaLayout> {
        use header_fields as f;
        let magic = view.nt_load_u64(f::MAGIC)?;
        if magic != ARENA_MAGIC {
            return Err(ShmError::InvalidHeader(format!(
                "bad magic {magic:#x} (expected {ARENA_MAGIC:#x})"
            )));
        }
        let version = view.nt_load_u64(f::VERSION)?;
        if version != ARENA_VERSION {
            return Err(ShmError::InvalidHeader(format!(
                "unsupported version {version}"
            )));
        }
        let device_size = view.nt_load_u64(f::DEVICE_SIZE)? as usize;
        if device_size != view.len() {
            return Err(ShmError::InvalidHeader(format!(
                "header device size {device_size} != mapped size {}",
                view.len()
            )));
        }
        let hash = HashConfig::new(
            view.nt_load_u64(f::HASH_LEVELS)? as usize,
            view.nt_load_u64(f::LEVEL1_SLOTS)? as usize,
        )?;
        let max_free_extents = view.nt_load_u64(f::MAX_FREE_EXTENTS)? as usize;
        let layout = ArenaLayout::compute(device_size, hash, max_free_extents)?;
        // Cross-check the stored offsets against the recomputed layout.
        if layout.metadata_offset as u64 != view.nt_load_u64(f::METADATA_OFFSET)?
            || layout.objects_offset as u64 != view.nt_load_u64(f::OBJECTS_OFFSET)?
        {
            return Err(ShmError::InvalidHeader(
                "stored layout disagrees with recomputed layout".into(),
            ));
        }
        Ok(layout)
    }

    /// The resolved layout.
    pub fn layout(&self) -> &ArenaLayout {
        &self.layout
    }

    /// The per-host view the arena goes through.
    pub fn view(&self) -> &CxlView {
        &self.view
    }

    /// Acquire the cross-host directory lock: a device-level compare-exchange
    /// on a header word. `create` and `destroy` both read-modify-write the
    /// allocator state and the hash table, and with lazily established
    /// connections *any* rank creates objects at *any* time — two unsynchronized
    /// creators can read the same bump pointer and hand out one extent twice,
    /// silently aliasing two objects. The bound exists so a creator that dies
    /// while holding the lock surfaces as an error instead of a global hang.
    fn lock_directory(&self) -> Result<()> {
        use header_fields as f;
        const LOCK_SPIN_BOUND: usize = 50_000_000;
        let mut spins = 0usize;
        loop {
            match self.view.nt_compare_exchange_u64(f::DIR_LOCK, 0, 1)? {
                Ok(_) => return Ok(()),
                Err(_) if spins < LOCK_SPIN_BOUND => {
                    spins += 1;
                    if spins.is_multiple_of(64) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                Err(_) => return Err(ShmError::DirectoryLockTimeout),
            }
        }
    }

    fn unlock_directory(&self) {
        // A store failure here would mean the header itself is gone, in which
        // case every arena operation is already failing loudly.
        let _ = self.view.nt_store_u64(header_fields::DIR_LOCK, 0);
    }

    /// Run `body` with the cross-host directory lock held.
    fn with_directory_lock<T>(&self, body: impl FnOnce() -> Result<T>) -> Result<T> {
        self.lock_directory()?;
        let out = body();
        self.unlock_directory();
        out
    }

    /// Create a new object of `size` bytes. Equivalent to `cxl_shm_create`.
    ///
    /// Safe to call concurrently from any host: the allocation and the
    /// metadata insert happen under the arena's cross-host directory lock.
    pub fn create(&self, name: &str, size: usize) -> Result<ShmObject> {
        if size == 0 || size as u64 > self.layout.objects_size as u64 {
            return Err(ShmError::InvalidObjectSize(size));
        }
        let offset = self.with_directory_lock(|| {
            if self.hash.lookup(name)?.is_some() {
                return Err(ShmError::ObjectExists(name.to_string()));
            }
            let offset = self.alloc.allocate(size)?;
            if let Err(e) = self.hash.insert(name, offset, size as u64) {
                // Roll the allocation back so a failed insert does not leak space.
                let _ = self.alloc.free(offset, size);
                return Err(e);
            }
            Ok(offset)
        })?;
        Ok(ShmObject {
            name: name.into(),
            offset,
            size: size as u64,
            view: self.view.clone(),
            open: true,
        })
    }

    /// Open an existing object by name. Equivalent to `cxl_shm_open`.
    pub fn open(&self, name: &str) -> Result<ShmObject> {
        let meta = self
            .hash
            .lookup(name)?
            .ok_or_else(|| ShmError::ObjectNotFound(name.to_string()))?;
        Ok(ShmObject {
            name: meta.name.into(),
            offset: meta.offset,
            size: meta.size,
            view: self.view.clone(),
            open: true,
        })
    }

    /// Open an existing object, spinning until some other host creates it.
    /// This is how non-root ranks pick up objects whose names were broadcast.
    pub fn open_wait(&self, name: &str, max_spins: u64) -> Result<ShmObject> {
        self.open_when(name, max_spins as usize, || false)
    }

    /// [`CxlShmArena::open_wait`] with an abort predicate: gives up early —
    /// with `ObjectNotFound`, same as the spin bound expiring — as soon as
    /// `should_abort` returns `true`. This is the hardened open used when the
    /// creator might die *mid-initialization*: a runtime that tracks rank
    /// deaths passes a liveness predicate, so waiters stop as soon as the
    /// death is recorded instead of burning the whole bound (and the bound
    /// still catches deaths the runtime never records).
    pub fn open_when(
        &self,
        name: &str,
        max_spins: usize,
        mut should_abort: impl FnMut() -> bool,
    ) -> Result<ShmObject> {
        let mut spins = 0usize;
        loop {
            match self.open(name) {
                Ok(obj) => return Ok(obj),
                Err(ShmError::ObjectNotFound(_)) if spins < max_spins && !should_abort() => {
                    spins += 1;
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Close a handle without removing the object. Equivalent to
    /// `cxl_shm_close`.
    pub fn close(&self, obj: &mut ShmObject) {
        obj.invalidate();
    }

    /// Destroy an object: remove its metadata and free its space. Equivalent to
    /// `cxl_shm_destroy`. The handle becomes stale.
    pub fn destroy(&self, obj: &mut ShmObject) -> Result<()> {
        if !obj.open {
            return Err(ShmError::StaleHandle(obj.name.to_string()));
        }
        self.with_directory_lock(|| {
            let meta = self.hash.remove(&obj.name)?;
            self.alloc.free(meta.offset, meta.size as usize)
        })?;
        obj.invalidate();
        Ok(())
    }

    /// Destroy an object by name (no handle required).
    pub fn destroy_by_name(&self, name: &str) -> Result<()> {
        self.with_directory_lock(|| {
            let meta = self.hash.remove(name)?;
            self.alloc.free(meta.offset, meta.size as usize)
        })
    }

    /// Look up object metadata without opening a handle.
    pub fn stat(&self, name: &str) -> Result<Option<ObjectMeta>> {
        self.hash.lookup(name)
    }

    /// Number of live objects (full metadata scan; diagnostics only).
    pub fn object_count(&self) -> Result<usize> {
        self.hash.count_used()
    }

    /// Allocator occupancy.
    pub fn alloc_stats(&self) -> Result<AllocStats> {
        self.alloc.stats()
    }

    /// Flush this host's entire cache back to the device and drop the arena
    /// handle. Equivalent to `cxl_shm_finalize`.
    pub fn finalize(self) -> Result<()> {
        self.view.cache().flush_all(&self.view.device().segment())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HostCache;
    use crate::dax::DaxDevice;

    fn test_device(name: &str, mb: usize) -> DaxDevice {
        DaxDevice::with_alignment(name, mb * 1024 * 1024, 4096).unwrap()
    }

    fn host_view(dev: &DaxDevice, host: &str) -> CxlView {
        CxlView::new(dev.clone(), HostCache::with_capacity(host, 8192))
    }

    #[test]
    fn init_create_open_roundtrip() {
        let dev = test_device("arena-basic", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        let obj = arena.create("buffer", 1024).unwrap();
        assert_eq!(obj.len(), 1024);
        obj.write_flush_at(0, b"hello arena").unwrap();

        let opened = arena.open("buffer").unwrap();
        let mut buf = [0u8; 11];
        opened.read_coherent_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello arena");
    }

    #[test]
    fn object_visible_on_other_host() {
        let dev = test_device("arena-xhost", 4);
        let arena_a = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        let arena_b = CxlShmArena::attach(host_view(&dev, "hostB")).unwrap();

        let obj_a = arena_a.create("msgq", 4096).unwrap();
        obj_a.write_flush_at(100, &[0xAB; 64]).unwrap();

        let obj_b = arena_b.open("msgq").unwrap();
        assert_eq!(obj_b.offset(), obj_a.offset());
        let mut buf = [0u8; 64];
        obj_b.read_coherent_at(100, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 64]);
    }

    #[test]
    fn attach_before_init_fails_attach_wait_succeeds() {
        let dev = test_device("arena-wait", 4);
        assert!(matches!(
            CxlShmArena::attach(host_view(&dev, "hostB")),
            Err(ShmError::InvalidHeader(_))
        ));

        let dev2 = dev.clone();
        let waiter = std::thread::spawn(move || {
            CxlShmArena::attach_wait(host_view(&dev2, "hostB"), u64::MAX).unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        let _arena_a = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        let arena_b = waiter.join().unwrap();
        assert_eq!(arena_b.layout().device_size, 4 * 1024 * 1024);
    }

    #[test]
    fn create_duplicate_rejected() {
        let dev = test_device("arena-dup", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        arena.create("obj", 128).unwrap();
        assert!(matches!(
            arena.create("obj", 128),
            Err(ShmError::ObjectExists(_))
        ));
    }

    #[test]
    fn destroy_frees_space_and_invalidates_handle() {
        let dev = test_device("arena-destroy", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        let before = arena.alloc_stats().unwrap().free_bytes;
        let mut obj = arena.create("temp", 4096).unwrap();
        assert!(arena.alloc_stats().unwrap().free_bytes < before);
        arena.destroy(&mut obj).unwrap();
        assert_eq!(arena.alloc_stats().unwrap().free_bytes, before);
        assert!(matches!(
            obj.write_at(0, &[1]),
            Err(ShmError::StaleHandle(_))
        ));
        assert!(matches!(
            arena.open("temp"),
            Err(ShmError::ObjectNotFound(_))
        ));
        // The name can be reused.
        arena.create("temp", 64).unwrap();
    }

    #[test]
    fn close_keeps_object_alive() {
        let dev = test_device("arena-close", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        let mut obj = arena.create("persistent", 256).unwrap();
        obj.write_flush_at(0, &[7; 8]).unwrap();
        arena.close(&mut obj);
        assert!(matches!(
            obj.read_at(0, &mut [0; 8]),
            Err(ShmError::StaleHandle(_))
        ));
        let again = arena.open("persistent").unwrap();
        let mut buf = [0u8; 8];
        again.read_coherent_at(0, &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn object_bounds_enforced() {
        let dev = test_device("arena-bounds", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        let obj = arena.create("small", 64).unwrap();
        assert!(obj.write_at(60, &[0; 8]).is_err());
        assert!(obj.read_at(64, &mut [0; 1]).is_err());
        assert!(obj.nt_load_u64_at(60).is_err());
        obj.write_at(56, &[0; 8]).unwrap();
    }

    #[test]
    fn invalid_sizes_rejected() {
        let dev = test_device("arena-sizes", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        assert!(matches!(
            arena.create("zero", 0),
            Err(ShmError::InvalidObjectSize(0))
        ));
        assert!(arena.create("huge", 64 * 1024 * 1024).is_err());
    }

    #[test]
    fn open_wait_times_out() {
        let dev = test_device("arena-timeout", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        assert!(matches!(
            arena.open_wait("never", 100),
            Err(ShmError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn open_when_aborts_on_predicate() {
        let dev = test_device("arena-abort", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        // The predicate trips after a couple of probes — long before the spin
        // bound — modelling a creator whose death is recorded mid-wait.
        let mut probes = 0u32;
        let result = arena.open_when("never", u32::MAX as usize, || {
            probes += 1;
            probes >= 3
        });
        assert!(matches!(result, Err(ShmError::ObjectNotFound(_))));
        assert_eq!(probes, 3, "stopped as soon as the predicate tripped");
        // A created object still opens instantly, predicate untouched.
        arena.create("exists", 64).unwrap();
        assert!(arena
            .open_when("exists", 0, || panic!("predicate must not be consulted"))
            .is_ok());
    }

    #[test]
    fn concurrent_creators_get_disjoint_objects() {
        // Regression test for the lazy-connection wedge: every rank creates
        // its own doorbell/SRQ (and QPs mid-run), so `create` races with
        // `create` from other hosts. Without the directory lock two creators
        // could read the same bump pointer and alias their objects onto one
        // extent, silently crossing the message queues of unrelated peers.
        const HOSTS: usize = 8;
        const PER_HOST: usize = 24;
        let dev = test_device("arena-concurrent", 16);
        let _root = CxlShmArena::init(
            host_view(&dev, "host-init"),
            ArenaConfig::for_objects(HOSTS * PER_HOST),
        )
        .unwrap();
        let handles: Vec<_> = (0..HOSTS)
            .map(|h| {
                let dev = dev.clone();
                std::thread::spawn(move || {
                    let arena = CxlShmArena::attach(host_view(&dev, &format!("host{h}"))).unwrap();
                    (0..PER_HOST)
                        .map(|i| {
                            let obj = arena
                                .create(&format!("obj_{h}_{i}"), 64 + (h * 31 + i) * 64)
                                .unwrap();
                            (obj.name().to_string(), obj.offset(), obj.len())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(String, u64, u64)> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), HOSTS * PER_HOST);
        // Every object must be findable afterwards with the offset its creator
        // was handed, and no two extents may overlap.
        let check = CxlShmArena::attach(host_view(&dev, "host-check")).unwrap();
        for (name, offset, size) in &all {
            let meta = check.stat(name).unwrap().unwrap_or_else(|| {
                panic!("object {name} lost: a racing insert overwrote its slot")
            });
            assert_eq!(meta.offset, *offset, "object {name} moved");
            assert_eq!(meta.size, *size);
        }
        all.sort_by_key(|&(_, offset, _)| offset);
        for pair in all.windows(2) {
            let (ref a, a_off, a_len) = pair[0];
            let (ref b, b_off, _) = pair[1];
            assert!(
                a_off + a_len <= b_off,
                "objects {a} and {b} overlap: [{a_off}, {}) vs {b_off}",
                a_off + a_len
            );
        }
    }

    #[test]
    fn stat_and_object_count() {
        let dev = test_device("arena-stat", 4);
        let arena = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        assert_eq!(arena.object_count().unwrap(), 0);
        arena.create("a", 128).unwrap();
        arena.create("b", 128).unwrap();
        assert_eq!(arena.object_count().unwrap(), 2);
        let meta = arena.stat("a").unwrap().unwrap();
        assert_eq!(meta.size, 128);
        assert!(arena.stat("zzz").unwrap().is_none());
    }

    #[test]
    fn flag_spin_across_hosts() {
        let dev = test_device("arena-flag", 4);
        let arena_a = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        let arena_b = CxlShmArena::attach(host_view(&dev, "hostB")).unwrap();
        let obj_a = arena_a.create("sync", 64).unwrap();
        let obj_b = arena_b.open("sync").unwrap();

        let t = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(5));
            obj_a.nt_store_u64_at(0, 42).unwrap();
        });
        let v = obj_b.nt_spin_until_at(0, |v| v == 42).unwrap();
        assert_eq!(v, 42);
        t.join().unwrap();
    }

    #[test]
    fn finalize_flushes_dirty_data() {
        let dev = test_device("arena-finalize", 4);
        let arena_a = CxlShmArena::init(host_view(&dev, "hostA"), ArenaConfig::small()).unwrap();
        let obj = arena_a.create("data", 256).unwrap();
        // Plain cached write, never explicitly flushed.
        obj.write_at(0, &[0x5A; 256]).unwrap();
        let offset = obj.offset();
        arena_a.finalize().unwrap();
        // After finalize the raw device holds the data.
        let mut buf = [0u8; 256];
        dev.segment().read(offset as usize, &mut buf).unwrap();
        assert_eq!(buf, [0x5A; 256]);
    }
}
