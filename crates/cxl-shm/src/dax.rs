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
use std::sync::atomic::{fence, AtomicU64, Ordering};
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
/// well-defined. The pool's ordering contract:
///
/// * `SeqCst`: every load, every word read-modify-write (`fetch_or_u64` & co.),
///   every partial word (a compare-exchange merge, so two hosts writing
///   disjoint bytes of one word never lose each other's bytes) and a
///   [`SharedSegment::write`] of one whole word.
/// * A [`SharedSegment::write`] or [`SharedSegment::write_lines`] of more
///   whole words stores them as `Release` words, in address order, and ends
///   with one `SeqCst` fence. A reader that loads word *k* of the run sees the
///   words before it, and the writer's later loads are ordered after the whole
///   call — what the stamped cells, the bakery doorway, `SeqBarrier` and the
///   arena's directory lock rely on. This is how x86 non-temporal stores
///   behave: weakly ordered among themselves, published by a fence.
/// * [`SharedSegment::write_relaxed`] stores `Relaxed` words: the cache's
///   write-backs, which a later flag store publishes.
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
    /// Create a zero-initialised segment of `len` bytes. The memory is
    /// allocated zeroed in one call, so a page the run never touches is never
    /// faulted in — as with a real dax mapping.
    pub fn new(len: usize) -> Self {
        let words = Box::<[AtomicU64]>::new_zeroed_slice(len.div_ceil(8));
        // SAFETY: `AtomicU64` has the size and bit validity of `u64`, so the
        // all-zero bits of a zeroed allocation are a valid `AtomicU64`
        // (holding 0) for every element.
        let words = unsafe { words.assume_init() };
        SharedSegment { words, len }
    }

    /// Capacity of the segment in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment has zero capacity.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `OutOfBounds` unless `len` bytes at `offset` lie inside the segment;
    /// an `offset + len` past `usize::MAX` is out of bounds too.
    pub(crate) fn check_bounds(&self, offset: usize, len: usize) -> Result<()> {
        if offset.checked_add(len).is_none_or(|end| end > self.len) {
            return Err(ShmError::OutOfBounds {
                offset,
                len,
                capacity: self.len,
            });
        }
        Ok(())
    }

    /// [`SharedSegment::check_bounds`], then `NotWholeLines` unless `offset`
    /// and `len` are whole cache lines: what [`SharedSegment::write_lines`]
    /// accepts.
    pub(crate) fn check_lines(&self, offset: usize, len: usize) -> Result<()> {
        self.check_bounds(offset, len)?;
        if !offset.is_multiple_of(CACHE_LINE_SIZE) || !len.is_multiple_of(CACHE_LINE_SIZE) {
            return Err(ShmError::NotWholeLines { offset, len });
        }
        Ok(())
    }

    /// Read `buf.len()` bytes starting at `offset`, with `SeqCst` word loads.
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.check_bounds(offset, buf.len())?;
        let load = |word: usize| self.words[word].load(Ordering::SeqCst).to_le_bytes();
        let (mut word, in_word) = (offset / 8, offset % 8);
        let mut rest = buf;
        if in_word != 0 && !rest.is_empty() {
            let (head, tail) = rest.split_at_mut((8 - in_word).min(rest.len()));
            head.copy_from_slice(&load(word)[in_word..in_word + head.len()]);
            rest = tail;
            word += 1;
        }
        let (run, tail) = rest.as_chunks_mut::<8>();
        for (bytes, w) in run.iter_mut().zip(&self.words[word..]) {
            *bytes = w.load(Ordering::SeqCst).to_le_bytes();
        }
        if !tail.is_empty() {
            tail.copy_from_slice(&load(word + run.len())[..tail.len()]);
        }
        Ok(())
    }

    /// Write `data` starting at `offset`: a whole word is one `SeqCst` store,
    /// a longer run `Release` words and a `SeqCst` fence (see
    /// [`SharedSegment`] for the pairing), partial words `SeqCst` merges.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.write_ordered(offset, data, Ordering::SeqCst)
    }

    /// Write with `Relaxed` whole-word stores — the cache's write-back path.
    /// Sound for those bytes because every cross-host publication is ordered
    /// by a later [`SharedSegment::write`] of a flag that the consumer loads
    /// before reading.
    pub fn write_relaxed(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.write_ordered(offset, data, Ordering::Relaxed)
    }

    /// Write whole cache lines at a line-aligned `offset`, each the way one
    /// 64-byte direct store (`MOVDIR64B`) lands: the line's first word after
    /// the rest of it, so that whoever loads that word loads the line it came
    /// with. Every word is a `Release` store and one `SeqCst` fence ends the
    /// call, as for a [`SharedSegment::write`] run.
    pub fn write_lines(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.check_lines(offset, data.len())?;
        let words = &self.words[offset / 8..];
        let (run, _) = data.as_chunks::<8>();
        for (line, w) in run.chunks_exact(8).zip(words.chunks_exact(8)) {
            Self::store_run(&w[1..], &line[1..], Ordering::Release);
            // Release: a reader that loads this word sees the seven above.
            w[0].store(u64::from_le_bytes(line[0]), Ordering::Release);
        }
        // Orders the lines before this caller's later loads (the StoreLoad
        // edge a run of `SeqCst` stores gave).
        fence(Ordering::SeqCst);
        Ok(())
    }

    /// Store whole words; `order` is the ordering of each store.
    fn store_run(words: &[AtomicU64], run: &[[u8; 8]], order: Ordering) {
        for (bytes, w) in run.iter().zip(words) {
            w.store(u64::from_le_bytes(*bytes), order);
        }
    }

    /// Merge `bytes` into word `word` at byte `in_word`, with a `SeqCst`
    /// compare-exchange loop so concurrent writers of neighbouring bytes in
    /// the same word cannot lose updates.
    fn merge(&self, word: usize, in_word: usize, bytes: &[u8]) {
        self.words[word]
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |old| {
                let mut merged = old.to_le_bytes();
                merged[in_word..in_word + bytes.len()].copy_from_slice(bytes);
                Some(u64::from_le_bytes(merged))
            })
            .expect("fetch_update closure never returns None");
    }

    /// A partial head word, a run of whole words and a partial tail word.
    ///
    /// Under `SeqCst` a run of two or more words is stored `Release`, in
    /// address order, followed by one `fence(SeqCst)`:
    /// * a reader that acquires word *k* of the run (every load is `SeqCst`)
    ///   sees the head word and words < *k*, as a run of `SeqCst` stores gave;
    /// * the trailing fence orders the whole call before the writer's later
    ///   loads — the StoreLoad order the bakery doorway, `SeqBarrier` and the
    ///   directory-lock unlock rely on across calls;
    /// * `write_lines`' "first word lands last" does not rest on this: each
    ///   line's first word is stored after the rest of the line.
    ///
    /// A run of one word stays one `SeqCst` store, which needs no fence.
    fn write_ordered(&self, offset: usize, data: &[u8], order: Ordering) -> Result<()> {
        self.check_bounds(offset, data.len())?;
        let (mut word, in_word) = (offset / 8, offset % 8);
        let mut rest = data;
        if in_word != 0 && !rest.is_empty() {
            let (head, tail) = rest.split_at((8 - in_word).min(rest.len()));
            self.merge(word, in_word, head);
            rest = tail;
            word += 1;
        }
        let (run, tail) = rest.as_chunks::<8>();
        let fenced = order == Ordering::SeqCst && run.len() > 1;
        let run_order = if fenced { Ordering::Release } else { order };
        Self::store_run(&self.words[word..], run, run_order);
        if !tail.is_empty() {
            self.merge(word + run.len(), 0, tail);
        }
        if fenced {
            fence(Ordering::SeqCst);
        }
        Ok(())
    }

    /// The index of the word at `offset`: `OutOfBounds` or `Misaligned`
    /// unless it is an aligned word inside the segment.
    pub(crate) fn check_word(&self, offset: usize) -> Result<usize> {
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
    fn word_runs_agree_with_a_byte_model() {
        // Every head / run / tail split a call can take: offsets across two
        // words and more, lengths from empty to five words and a bit, against
        // a plain byte vector; the bytes around each write keep their values.
        let background = |len: usize, k: usize| -> Vec<u8> {
            (0..len).map(|i| (i * 7 + k) as u8 | 0x80).collect()
        };
        const LEN: usize = 80;
        for offset in 0..=17 {
            for len in 0..=41 {
                let data: Vec<u8> = (0..len).map(|i| (i * 13 + offset) as u8).collect();
                for write in [SharedSegment::write, SharedSegment::write_relaxed] {
                    let seg = SharedSegment::new(LEN);
                    let mut out = vec![0xFFu8; LEN];
                    seg.read(0, &mut out).unwrap();
                    assert_eq!(out, [0; LEN], "a fresh segment reads zero");
                    let mut model = background(LEN, offset + len);
                    seg.write(0, &model).unwrap();
                    write(&seg, offset, &data).unwrap();
                    model[offset..offset + len].copy_from_slice(&data);
                    seg.read(0, &mut out).unwrap();
                    assert_eq!(out, model, "write of {len} at {offset}");
                    for at in 0..=offset {
                        let mut part = vec![0u8; len];
                        seg.read(at, &mut part).unwrap();
                        assert_eq!(part, model[at..at + len], "read of {len} at {at}");
                    }
                }
            }
        }
        const LINES: usize = 4;
        for at in 0..LINES {
            for lines in 0..=LINES - at {
                let seg = SharedSegment::new(LINES * CACHE_LINE_SIZE);
                let mut model = background(LINES * CACHE_LINE_SIZE, at + lines);
                seg.write(0, &model).unwrap();
                let data: Vec<u8> = (0..lines * CACHE_LINE_SIZE)
                    .map(|i| (i * 3 + at) as u8)
                    .collect();
                let offset = at * CACHE_LINE_SIZE;
                seg.write_lines(offset, &data).unwrap();
                model[offset..offset + data.len()].copy_from_slice(&data);
                let mut out = vec![0u8; model.len()];
                seg.read(0, &mut out).unwrap();
                assert_eq!(out, model, "{lines} lines at line {at}");
            }
        }
        let seg = SharedSegment::new(LINES * CACHE_LINE_SIZE);
        for (offset, len) in [(8, CACHE_LINE_SIZE), (0, 8)] {
            let err = seg.write_lines(offset, &vec![0; len]).unwrap_err();
            assert_eq!(err, ShmError::NotWholeLines { offset, len });
            assert_eq!(
                err.to_string(),
                format!("line store of {len} bytes at offset {offset} is not whole 64-byte lines")
            );
        }
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
