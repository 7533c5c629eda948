//! Simulated Direct Access (dax) device.
//!
//! On the real platform the CXL pooled memory is exposed to each host as a
//! `/dev/daxX.Y` character device by the CXL driver and `daxctl`; hosts `mmap`
//! the device to obtain a byte-addressable view of the shared memory. This
//! module provides the same surface in simulation:
//!
//! * [`SharedSegment`] — the device memory itself: a word array shared by every
//!   simulated host, with byte-granularity bounds-checked access.
//! * [`DaxDevice`] — a named device wrapping a segment, with the 2 MB mapping
//!   alignment constraint the paper calls out for devdax mappings.
//! * [`DaxRegistry`] — the `daxctl` stand-in: create and open devices by name.
//!
//! The segment stores data in `AtomicU64` words so that concurrent access from
//! many rank threads is well-defined at the language level. Visibility of plain
//! (cached) writes between hosts is **not** provided by this layer alone in the
//! full stack: the [`crate::cache`] layer sits on top and only writes data back
//! to the segment when the owning host flushes, reproducing the missing
//! inter-host hardware coherence of the CXL platform.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cache::CACHE_LINE_SIZE;
use crate::error::ShmError;
use crate::Result;

/// Default mapping alignment for devdax devices (2 MB huge-page alignment).
pub const DAX_ALIGNMENT: usize = 2 * 1024 * 1024;

/// The shared device memory backing a dax device.
///
/// All simulated hosts reference the same `SharedSegment` through an
/// [`Arc`]; loads and stores use atomic word operations so racing accesses are
/// well-defined. Partial-word writes use a compare-exchange loop so two hosts
/// writing disjoint byte ranges that share a word never lose each other's
/// bytes.
pub struct SharedSegment {
    words: Box<[AtomicU64]>,
    len: usize,
}

impl std::fmt::Debug for SharedSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSegment")
            .field("len", &self.len)
            .finish()
    }
}

impl SharedSegment {
    /// Create a zero-initialised segment of `len` bytes.
    pub fn new(len: usize) -> Self {
        let n_words = len.div_ceil(8);
        let mut words = Vec::with_capacity(n_words);
        words.resize_with(n_words, || AtomicU64::new(0));
        SharedSegment {
            words: words.into_boxed_slice(),
            len,
        }
    }

    /// Capacity of the segment in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check_bounds(&self, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(ShmError::OutOfBounds {
                offset,
                len,
                capacity: self.len,
            });
        }
        Ok(())
    }

    /// Read `buf.len()` bytes starting at `offset`, with sequentially
    /// consistent word loads (synchronization variables: flags, queue
    /// pointers, lock slots).
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.read_ordered(offset, buf, Ordering::SeqCst)
    }

    /// Read with relaxed word loads — the bulk-data path. Safe for payload
    /// bytes because every cross-host publication is ordered by a `SeqCst`
    /// flag store ([`SharedSegment::write`] of a queue tail, barrier slot,
    /// ...) that the consumer loads before reading: the release/acquire edge
    /// through the flag makes the relaxed payload stores visible, and the
    /// relaxed loads are ~an order of magnitude cheaper per word.
    pub fn read_relaxed(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.read_ordered(offset, buf, Ordering::Relaxed)
    }

    fn read_ordered(&self, offset: usize, buf: &mut [u8], order: Ordering) -> Result<()> {
        self.check_bounds(offset, buf.len())?;
        let mut pos = 0usize;
        while pos < buf.len() {
            let byte_addr = offset + pos;
            let word_idx = byte_addr / 8;
            let in_word = byte_addr % 8;
            let take = (8 - in_word).min(buf.len() - pos);
            let word = self.words[word_idx].load(order);
            let bytes = word.to_le_bytes();
            buf[pos..pos + take].copy_from_slice(&bytes[in_word..in_word + take]);
            pos += take;
        }
        Ok(())
    }

    /// Write `data` starting at `offset`, with sequentially consistent word
    /// stores (synchronization variables).
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.write_ordered(offset, data, Ordering::SeqCst)
    }

    /// Write with relaxed word stores — the bulk-data path (see
    /// [`SharedSegment::read_relaxed`] for why this is sound).
    pub fn write_relaxed(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.write_ordered(offset, data, Ordering::Relaxed)
    }

    /// Write whole cache lines at a line-aligned `offset`, each the way one
    /// 64-byte direct store (`MOVDIR64B`) lands: the line's first word after
    /// the rest of it, so that whoever loads that word loads the line it came
    /// with. Lines are not ordered against each other.
    pub fn write_lines(&self, offset: usize, data: &[u8]) -> Result<()> {
        debug_assert!(offset.is_multiple_of(CACHE_LINE_SIZE));
        debug_assert!(data.len().is_multiple_of(CACHE_LINE_SIZE));
        self.check_bounds(offset, data.len())?;
        for (k, line) in data.chunks(CACHE_LINE_SIZE).enumerate() {
            let at = offset + k * CACHE_LINE_SIZE;
            self.write_ordered(at + 8, &line[8..], Ordering::SeqCst)?;
            self.write_ordered(at, &line[..8], Ordering::SeqCst)?;
        }
        Ok(())
    }

    fn write_ordered(&self, offset: usize, data: &[u8], order: Ordering) -> Result<()> {
        self.check_bounds(offset, data.len())?;
        let mut pos = 0usize;
        while pos < data.len() {
            let byte_addr = offset + pos;
            let word_idx = byte_addr / 8;
            let in_word = byte_addr % 8;
            let take = (8 - in_word).min(data.len() - pos);
            if in_word == 0 && take == 8 {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&data[pos..pos + 8]);
                self.words[word_idx].store(u64::from_le_bytes(bytes), order);
            } else {
                // Partial word: merge with a CAS loop so concurrent writers of
                // neighbouring bytes in the same word cannot lose updates.
                // Always SeqCst: partial words are rare and correctness of the
                // merge matters more than speed here.
                let slice = &data[pos..pos + take];
                self.words[word_idx]
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
                        let mut bytes = old.to_le_bytes();
                        bytes[in_word..in_word + take].copy_from_slice(slice);
                        Some(u64::from_le_bytes(bytes))
                    })
                    .expect("fetch_update closure never returns None");
            }
            pos += take;
        }
        Ok(())
    }

    fn check_word(&self, offset: usize) -> Result<usize> {
        self.check_bounds(offset, 8)?;
        if !offset.is_multiple_of(8) {
            return Err(ShmError::Misaligned { offset });
        }
        Ok(offset / 8)
    }

    /// Atomically OR `bits` into the `u64` word at an 8-byte-aligned byte
    /// offset, returning the previous value. At aligned offsets the word value
    /// equals the little-endian `u64` seen by [`SharedSegment::read_u64`], so
    /// the atomic ops compose with the flag loads/stores used elsewhere.
    ///
    /// These word RMWs model the back-invalidate atomics of CXL 3.0 devices;
    /// the paper's platform (CXL 1.1/2.0 semantics) has no cross-host atomics,
    /// which is why the data path never uses them — only the connection-table
    /// doorbells and shared receive queues do, and that deviation is called
    /// out where they are configured.
    pub fn fetch_or_u64(&self, offset: usize, bits: u64) -> Result<u64> {
        let idx = self.check_word(offset)?;
        Ok(self.words[idx].fetch_or(bits, Ordering::SeqCst))
    }

    /// Atomically exchange the `u64` word at an 8-byte-aligned byte offset,
    /// returning the previous value (see [`SharedSegment::fetch_or_u64`]).
    pub fn swap_u64(&self, offset: usize, value: u64) -> Result<u64> {
        let idx = self.check_word(offset)?;
        Ok(self.words[idx].swap(value, Ordering::SeqCst))
    }

    /// Atomically add `delta` (wrapping) to the `u64` word at an 8-byte-aligned
    /// byte offset, returning the previous value (see
    /// [`SharedSegment::fetch_or_u64`]).
    pub fn fetch_add_u64(&self, offset: usize, delta: u64) -> Result<u64> {
        let idx = self.check_word(offset)?;
        Ok(self.words[idx].fetch_add(delta, Ordering::SeqCst))
    }

    /// Atomically replace the `u64` word at an 8-byte-aligned byte offset with
    /// `new` if it currently equals `current`. Returns `Ok(previous)` on
    /// success and `Err(actual)` when the word held something else (see
    /// [`SharedSegment::fetch_or_u64`] for the modelling note).
    pub fn compare_exchange_u64(
        &self,
        offset: usize,
        current: u64,
        new: u64,
    ) -> Result<std::result::Result<u64, u64>> {
        let idx = self.check_word(offset)?;
        Ok(self.words[idx].compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst))
    }

    /// Read a little-endian `u64` at a byte offset (need not be aligned).
    pub fn read_u64(&self, offset: usize) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.read(offset, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Write a little-endian `u64` at a byte offset (need not be aligned).
    pub fn write_u64(&self, offset: usize, value: u64) -> Result<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Zero a byte range.
    pub fn zero(&self, offset: usize, len: usize) -> Result<()> {
        self.check_bounds(offset, len)?;
        // Write in chunks to avoid a large temporary allocation.
        const CHUNK: usize = 4096;
        let zeros = [0u8; CHUNK];
        let mut pos = 0;
        while pos < len {
            let take = CHUNK.min(len - pos);
            self.write(offset + pos, &zeros[..take])?;
            pos += take;
        }
        Ok(())
    }
}

/// A named simulated dax device: the host-visible representation of a region of
/// the CXL pooled memory.
#[derive(Debug, Clone)]
pub struct DaxDevice {
    /// Shared: every [`crate::CxlView`] clone carries the device handle.
    name: Arc<str>,
    segment: Arc<SharedSegment>,
    alignment: usize,
}

impl DaxDevice {
    /// Create a device with the default devdax mapping alignment (2 MB).
    pub fn new(name: impl Into<String>, size: usize) -> Result<Self> {
        Self::with_alignment(name, size, DAX_ALIGNMENT)
    }

    /// Create a device with an explicit mapping alignment. Small alignments are
    /// convenient for unit tests; the real device requires 2 MB.
    pub fn with_alignment(name: impl Into<String>, size: usize, alignment: usize) -> Result<Self> {
        if size == 0 || alignment == 0 || !size.is_multiple_of(alignment) {
            return Err(ShmError::InvalidDeviceSize { size, alignment });
        }
        Ok(DaxDevice {
            name: name.into().into(),
            segment: Arc::new(SharedSegment::new(size)),
            alignment,
        })
    }

    /// Device name (e.g. `dax1.0`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Device capacity in bytes.
    pub fn size(&self) -> usize {
        self.segment.len()
    }

    /// Mapping alignment in bytes.
    pub fn alignment(&self) -> usize {
        self.alignment
    }

    /// The underlying shared segment ("mmap the whole device").
    pub fn segment(&self) -> Arc<SharedSegment> {
        Arc::clone(&self.segment)
    }
}

/// The `daxctl` stand-in: a registry of simulated dax devices, so independent
/// components (hosts, ranks, tests) can open the same device by name.
#[derive(Default)]
pub struct DaxRegistry {
    devices: Mutex<HashMap<String, DaxDevice>>,
}

impl std::fmt::Debug for DaxRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let devices = self.devices.lock();
        f.debug_struct("DaxRegistry")
            .field("devices", &devices.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl DaxRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a new device. Fails if a device with this name already exists.
    pub fn create(&self, name: &str, size: usize) -> Result<DaxDevice> {
        self.create_with_alignment(name, size, DAX_ALIGNMENT)
    }

    /// Create a new device with an explicit alignment (mainly for tests).
    pub fn create_with_alignment(
        &self,
        name: &str,
        size: usize,
        alignment: usize,
    ) -> Result<DaxDevice> {
        let mut devices = self.devices.lock();
        if devices.contains_key(name) {
            return Err(ShmError::DeviceExists(name.to_string()));
        }
        let dev = DaxDevice::with_alignment(name, size, alignment)?;
        devices.insert(name.to_string(), dev.clone());
        Ok(dev)
    }

    /// Open an existing device by name.
    pub fn open(&self, name: &str) -> Result<DaxDevice> {
        let devices = self.devices.lock();
        devices
            .get(name)
            .cloned()
            .ok_or_else(|| ShmError::DeviceNotFound(name.to_string()))
    }

    /// Remove a device from the registry. Existing handles stay usable (the
    /// memory is reference-counted), but the name can be reused.
    pub fn destroy(&self, name: &str) -> Result<()> {
        let mut devices = self.devices.lock();
        devices
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| ShmError::DeviceNotFound(name.to_string()))
    }

    /// Names of all registered devices, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.devices.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn segment_roundtrip_aligned() {
        let seg = SharedSegment::new(1024);
        let data: Vec<u8> = (0..64).map(|i| i as u8).collect();
        seg.write(0, &data).unwrap();
        let mut out = vec![0u8; 64];
        seg.read(0, &mut out).unwrap();
        assert_eq!(data, out);
    }

    #[test]
    fn segment_roundtrip_unaligned() {
        let seg = SharedSegment::new(256);
        let data: Vec<u8> = (0..33).map(|i| (i * 7) as u8).collect();
        seg.write(13, &data).unwrap();
        let mut out = vec![0u8; 33];
        seg.read(13, &mut out).unwrap();
        assert_eq!(data, out);
    }

    #[test]
    fn segment_neighbouring_bytes_preserved() {
        let seg = SharedSegment::new(64);
        seg.write(0, &[0xAA; 16]).unwrap();
        seg.write(3, &[0xBB; 2]).unwrap();
        let mut out = vec![0u8; 16];
        seg.read(0, &mut out).unwrap();
        assert_eq!(out[2], 0xAA);
        assert_eq!(out[3], 0xBB);
        assert_eq!(out[4], 0xBB);
        assert_eq!(out[5], 0xAA);
    }

    #[test]
    fn segment_out_of_bounds() {
        let seg = SharedSegment::new(16);
        let mut buf = [0u8; 8];
        assert!(matches!(
            seg.read(12, &mut buf),
            Err(ShmError::OutOfBounds { .. })
        ));
        assert!(matches!(
            seg.write(16, &[1]),
            Err(ShmError::OutOfBounds { .. })
        ));
        // Boundary access is fine.
        seg.write(8, &[1; 8]).unwrap();
    }

    #[test]
    fn segment_u64_roundtrip() {
        let seg = SharedSegment::new(64);
        seg.write_u64(5, 0xDEAD_BEEF_CAFE_F00D).unwrap();
        assert_eq!(seg.read_u64(5).unwrap(), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn segment_zero_range() {
        let seg = SharedSegment::new(8192);
        seg.write(100, &[0xFF; 5000]).unwrap();
        seg.zero(100, 5000).unwrap();
        let mut buf = vec![0xAAu8; 5000];
        seg.read(100, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn segment_concurrent_disjoint_writes_same_word() {
        // Two threads write adjacent bytes that share a word; neither write may
        // be lost thanks to the CAS merge.
        let seg = Arc::new(SharedSegment::new(8));
        let s1 = Arc::clone(&seg);
        let s2 = Arc::clone(&seg);
        let t1 = std::thread::spawn(move || {
            for _ in 0..1000 {
                s1.write(0, &[1, 1, 1, 1]).unwrap();
            }
        });
        let t2 = std::thread::spawn(move || {
            for _ in 0..1000 {
                s2.write(4, &[2, 2, 2, 2]).unwrap();
            }
        });
        t1.join().unwrap();
        t2.join().unwrap();
        let mut out = [0u8; 8];
        seg.read(0, &mut out).unwrap();
        assert_eq!(out, [1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn atomic_word_ops_roundtrip() {
        let seg = SharedSegment::new(64);
        assert_eq!(seg.fetch_or_u64(8, 0b1010).unwrap(), 0);
        assert_eq!(seg.fetch_or_u64(8, 0b0110).unwrap(), 0b1010);
        // Word value matches the LE u64 seen by the flag loads.
        assert_eq!(seg.read_u64(8).unwrap(), 0b1110);
        assert_eq!(seg.swap_u64(8, 77).unwrap(), 0b1110);
        assert_eq!(seg.fetch_add_u64(8, 3).unwrap(), 77);
        assert_eq!(seg.read_u64(8).unwrap(), 80);
        assert_eq!(seg.compare_exchange_u64(8, 80, 81).unwrap(), Ok(80));
        assert_eq!(seg.compare_exchange_u64(8, 80, 99).unwrap(), Err(81));
        assert_eq!(seg.read_u64(8).unwrap(), 81);
    }

    #[test]
    fn atomic_word_ops_reject_misaligned_and_oob() {
        let seg = SharedSegment::new(16);
        assert!(matches!(
            seg.fetch_or_u64(4, 1),
            Err(ShmError::Misaligned { offset: 4 })
        ));
        assert!(matches!(
            seg.fetch_add_u64(16, 1),
            Err(ShmError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn atomic_fetch_add_is_atomic_across_threads() {
        let seg = Arc::new(SharedSegment::new(64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&seg);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.fetch_add_u64(0, 1).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seg.read_u64(0).unwrap(), 4000);
    }

    #[test]
    fn device_requires_aligned_size() {
        assert!(DaxDevice::new("dax0.0", DAX_ALIGNMENT).is_ok());
        assert!(matches!(
            DaxDevice::new("dax0.0", DAX_ALIGNMENT + 1),
            Err(ShmError::InvalidDeviceSize { .. })
        ));
        assert!(matches!(
            DaxDevice::new("dax0.0", 0),
            Err(ShmError::InvalidDeviceSize { .. })
        ));
    }

    #[test]
    fn registry_create_open_destroy() {
        let reg = DaxRegistry::new();
        let dev = reg
            .create_with_alignment("dax1.0", 4096, 4096)
            .expect("create");
        assert_eq!(dev.size(), 4096);
        assert!(matches!(
            reg.create_with_alignment("dax1.0", 4096, 4096),
            Err(ShmError::DeviceExists(_))
        ));
        let opened = reg.open("dax1.0").expect("open");
        // Both handles alias the same memory.
        dev.segment().write(0, &[42]).unwrap();
        let mut b = [0u8];
        opened.segment().read(0, &mut b).unwrap();
        assert_eq!(b[0], 42);
        reg.destroy("dax1.0").unwrap();
        assert!(matches!(
            reg.open("dax1.0"),
            Err(ShmError::DeviceNotFound(_))
        ));
    }

    #[test]
    fn registry_list_sorted() {
        let reg = DaxRegistry::new();
        reg.create_with_alignment("dax2.0", 4096, 4096).unwrap();
        reg.create_with_alignment("dax0.0", 4096, 4096).unwrap();
        reg.create_with_alignment("dax1.0", 4096, 4096).unwrap();
        assert_eq!(reg.list(), vec!["dax0.0", "dax1.0", "dax2.0"]);
    }
}
