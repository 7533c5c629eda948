//! Software cache-coherence operations and the per-host [`CxlView`].
//!
//! Section 3.5 of the paper chooses *software-based cache coherence* for the
//! CXL shared memory: after every write the writer executes a cache-line flush
//! (`clflush`/`clflushopt`) followed by a store fence, and before every read the
//! reader executes a fence followed by a flush so stale or prefetched lines are
//! invalidated. Synchronization flags and queue head/tail pointers instead use
//! non-temporal loads/stores that bypass the cache entirely. The alternative —
//! marking the region uncacheable via MTRRs — is functionally correct but much
//! slower for anything larger than a couple of cache lines (Figure 11).
//!
//! [`CxlView`] is the handle a host (and every rank on it) uses to access a dax
//! device. It combines the device segment, the host's simulated cache, a cache
//! policy (write-back vs uncacheable) and traffic counters that the performance
//! models in `cmpi-fabric` translate into simulated time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cache::{HostCache, CACHE_LINE_SIZE};
use crate::dax::{DaxDevice, SharedSegment};
use crate::Result;

/// Which flush instruction a software-coherence operation models.
///
/// Functionally the two are identical (write back + invalidate); the cost model
/// charges `clflushopt` less because it flushes multiple lines in parallel
/// (Section 4.5 / Figure 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlushKind {
    /// Serialising `clflush`.
    Clflush,
    /// Optimised, parallel `clflushopt`.
    Clflushopt,
}

/// Memory fences tracked by the view; they only matter for the cost model and
/// ordering statistics. Functionally the pool orders itself: every load and
/// word RMW is `SeqCst`, and every non-temporal or uncacheable store either
/// is `SeqCst` words or ends in a `SeqCst` fence; the cache's write-backs are
/// `Relaxed`, published by a later such store (see [`SharedSegment`] for the
/// contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FenceKind {
    /// Store fence (`sfence`).
    Sfence,
    /// Load fence (`lfence`).
    Lfence,
    /// Full fence (`mfence`).
    Mfence,
}

/// Cacheability policy for a mapping, mirroring the MTRR configuration the
/// paper experiments with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CachePolicy {
    /// Write-back cacheable mapping (default); requires software coherence.
    #[default]
    WriteBack,
    /// Uncacheable mapping: every access goes straight to the device.
    Uncacheable,
}

/// Counters of coherence-relevant traffic issued through a [`CxlView`].
///
/// The counters are cumulative and shared between clones of the view (one view
/// is typically shared by all ranks of a host).
#[derive(Debug, Default)]
pub struct CoherenceCounters {
    /// Bytes written through the cached path.
    pub bytes_written: AtomicU64,
    /// Bytes read through the cached path.
    pub bytes_read: AtomicU64,
    /// Bytes written through non-temporal stores.
    pub nt_bytes_written: AtomicU64,
    /// Bytes read through non-temporal loads.
    pub nt_bytes_read: AtomicU64,
    /// Cache lines flushed with `clflush`.
    pub clflush_lines: AtomicU64,
    /// Cache lines flushed with `clflushopt`.
    pub clflushopt_lines: AtomicU64,
    /// Fences executed.
    pub fences: AtomicU64,
    /// Accesses performed while the mapping was uncacheable.
    pub uncacheable_accesses: AtomicU64,
}

/// A point-in-time copy of [`CoherenceCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoherenceSnapshot {
    /// Bytes written through the cached path.
    pub bytes_written: u64,
    /// Bytes read through the cached path.
    pub bytes_read: u64,
    /// Bytes written through non-temporal stores.
    pub nt_bytes_written: u64,
    /// Bytes read through non-temporal loads.
    pub nt_bytes_read: u64,
    /// Cache lines flushed with `clflush`.
    pub clflush_lines: u64,
    /// Cache lines flushed with `clflushopt`.
    pub clflushopt_lines: u64,
    /// Fences executed.
    pub fences: u64,
    /// Accesses performed while the mapping was uncacheable.
    pub uncacheable_accesses: u64,
}

impl CoherenceCounters {
    fn snapshot(&self) -> CoherenceSnapshot {
        CoherenceSnapshot {
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            nt_bytes_written: self.nt_bytes_written.load(Ordering::Relaxed),
            nt_bytes_read: self.nt_bytes_read.load(Ordering::Relaxed),
            clflush_lines: self.clflush_lines.load(Ordering::Relaxed),
            clflushopt_lines: self.clflushopt_lines.load(Ordering::Relaxed),
            fences: self.fences.load(Ordering::Relaxed),
            uncacheable_accesses: self.uncacheable_accesses.load(Ordering::Relaxed),
        }
    }
}

/// Number of cache lines touched by a byte range. Defined for every `offset`
/// and `len`: the sum `offset + len` is never formed.
pub fn lines_spanned(offset: usize, len: usize) -> u64 {
    let Some(last) = len.checked_sub(1) else {
        return 0;
    };
    let spill = (offset % CACHE_LINE_SIZE + last % CACHE_LINE_SIZE) / CACHE_LINE_SIZE;
    (last / CACHE_LINE_SIZE + spill + 1) as u64
}

/// Per-host view of a dax device ("the mmap of `/dev/daxX.Y`").
///
/// All ranks running on the same simulated host should share a clone of the
/// same `CxlView`, so that they also share the host cache — exactly as
/// co-located processes share the CPU caches of their socket.
#[derive(Clone)]
pub struct CxlView {
    device: DaxDevice,
    segment: Arc<SharedSegment>,
    cache: Arc<HostCache>,
    policy: CachePolicy,
    counters: Arc<CoherenceCounters>,
    default_flush: FlushKind,
}

impl std::fmt::Debug for CxlView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CxlView")
            .field("device", &self.device.name())
            .field("host_cache", &self.cache.name())
            .field("policy", &self.policy)
            .finish()
    }
}

impl CxlView {
    /// Map a device on a host. The cache should be shared by every view created
    /// for the same host.
    pub fn new(device: DaxDevice, cache: Arc<HostCache>) -> Self {
        let segment = device.segment();
        CxlView {
            device,
            segment,
            cache,
            policy: CachePolicy::WriteBack,
            counters: Arc::new(CoherenceCounters::default()),
            default_flush: FlushKind::Clflushopt,
        }
    }

    /// Change the cacheability policy (MTRR reconfiguration). Returns `self`
    /// for builder-style use.
    pub fn with_policy(mut self, policy: CachePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Select which flush instruction `write_flush`/`read_coherent` model.
    pub fn with_flush_kind(mut self, kind: FlushKind) -> Self {
        self.default_flush = kind;
        self
    }

    /// The device this view maps.
    pub fn device(&self) -> &DaxDevice {
        &self.device
    }

    /// Size of the mapped device in bytes.
    pub fn len(&self) -> usize {
        self.segment.len()
    }

    /// Whether the mapped device has zero size.
    pub fn is_empty(&self) -> bool {
        self.segment.len() == 0
    }

    /// The cacheability policy in force.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// The flush instruction used by the coherent helpers.
    pub fn default_flush(&self) -> FlushKind {
        self.default_flush
    }

    /// The host cache backing this view.
    pub fn cache(&self) -> &Arc<HostCache> {
        &self.cache
    }

    /// Snapshot of the traffic counters.
    pub fn counters(&self) -> CoherenceSnapshot {
        self.counters.snapshot()
    }

    // ------------------------------------------------------------------
    // Raw (cacheability-policy-respecting) accesses
    // ------------------------------------------------------------------

    /// Plain store. Under `WriteBack` the data lands in the host cache and is
    /// *not* visible to other hosts until flushed; under `Uncacheable` it goes
    /// straight to the device.
    pub fn write(&self, offset: usize, data: &[u8]) -> Result<()> {
        match self.policy {
            CachePolicy::WriteBack => self.cache.write(&self.segment, offset, data)?,
            CachePolicy::Uncacheable => {
                self.segment.write(offset, data)?;
                self.counters
                    .uncacheable_accesses
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.counters
            .bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Plain load, symmetric to [`CxlView::write`].
    pub fn read(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        match self.policy {
            CachePolicy::WriteBack => self.cache.read(&self.segment, offset, buf)?,
            CachePolicy::Uncacheable => {
                self.segment.read(offset, buf)?;
                self.counters
                    .uncacheable_accesses
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        self.counters
            .bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Software coherence protocol
    // ------------------------------------------------------------------

    /// Flush (write back + invalidate) the cache lines covering a range, using
    /// the given instruction. A no-op under the uncacheable policy.
    pub fn flush(&self, offset: usize, len: usize, kind: FlushKind) -> Result<()> {
        if self.policy == CachePolicy::Uncacheable {
            return Ok(());
        }
        self.cache.flush_range(&self.segment, offset, len)?;
        self.count_flush(offset, len, kind);
        Ok(())
    }

    fn count_flush(&self, offset: usize, len: usize, kind: FlushKind) {
        let lines = lines_spanned(offset, len);
        let counter = match kind {
            FlushKind::Clflush => &self.counters.clflush_lines,
            FlushKind::Clflushopt => &self.counters.clflushopt_lines,
        };
        counter.fetch_add(lines, Ordering::Relaxed);
    }

    /// Execute a fence. Functionally a no-op — every non-temporal store is
    /// already ordered before this host's later loads (`SeqCst` words, or
    /// `Release` words and a `SeqCst` fence; see [`SharedSegment`]); recorded
    /// for the cost model.
    pub fn fence(&self, _kind: FenceKind) {
        self.counters.fences.fetch_add(1, Ordering::Relaxed);
    }

    /// Coherent publish: write, flush the written lines, then `sfence` — the
    /// paper's "after every write" protocol.
    pub fn write_flush(&self, offset: usize, data: &[u8]) -> Result<()> {
        match self.policy {
            CachePolicy::WriteBack => {
                self.cache.write_flush(&self.segment, offset, data)?;
                self.counters
                    .bytes_written
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                self.count_flush(offset, data.len(), self.default_flush);
            }
            CachePolicy::Uncacheable => self.write(offset, data)?,
        }
        self.fence(FenceKind::Sfence);
        Ok(())
    }

    /// Coherent read: `lfence`, flush (to drop any stale/prefetched copy), then
    /// read — the paper's "before every read" protocol.
    pub fn read_coherent(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.segment.check_bounds(offset, buf.len())?;
        self.fence(FenceKind::Lfence);
        self.flush(offset, buf.len(), self.default_flush)?;
        self.read(offset, buf)
    }

    // ------------------------------------------------------------------
    // Non-temporal accesses (synchronization flags, queue pointers)
    // ------------------------------------------------------------------

    /// Non-temporal store of raw bytes: bypasses the cache and is immediately
    /// visible to every host.
    pub fn nt_store(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.cache.nt_store(&self.segment, offset, data)?;
        self.counters
            .nt_bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Non-temporal store of whole lines at a line-aligned offset, each as
    /// one 64-byte direct store: its first word lands last.
    pub fn nt_store_lines(&self, offset: usize, data: &[u8]) -> Result<()> {
        self.cache.nt_store_lines(&self.segment, offset, data)?;
        self.counters
            .nt_bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Non-temporal load of raw bytes.
    pub fn nt_load(&self, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.cache.nt_load(&self.segment, offset, buf)?;
        self.counters
            .nt_bytes_read
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Non-temporal store of a little-endian `u64` (flag / queue pointer).
    pub fn nt_store_u64(&self, offset: usize, value: u64) -> Result<()> {
        self.nt_store(offset, &value.to_le_bytes())
    }

    /// Non-temporal load of a little-endian `u64`.
    pub fn nt_load_u64(&self, offset: usize) -> Result<u64> {
        let mut buf = [0u8; 8];
        self.nt_load(offset, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Check the word at `offset`, then count an RMW on it and drop its
    /// cached line.
    fn count_nt_rmw(&self, offset: usize) -> Result<()> {
        self.segment.check_word(offset)?;
        self.counters
            .nt_bytes_written
            .fetch_add(8, Ordering::Relaxed);
        self.counters.nt_bytes_read.fetch_add(8, Ordering::Relaxed);
        self.cache.nt_rmw_prepare(offset);
        Ok(())
    }

    /// Non-temporal atomic fetch-OR of a `u64` word (8-byte-aligned offset):
    /// bypasses the cache and applies directly on the device, returning the
    /// previous value. Models a CXL 3.0 back-invalidate atomic; see
    /// [`crate::dax::SharedSegment::fetch_or_u64`] for the deviation note.
    pub fn nt_fetch_or_u64(&self, offset: usize, bits: u64) -> Result<u64> {
        self.count_nt_rmw(offset)?;
        self.segment.fetch_or_u64(offset, bits)
    }

    /// Non-temporal atomic exchange of a `u64` word (8-byte-aligned offset),
    /// returning the previous value.
    pub fn nt_swap_u64(&self, offset: usize, value: u64) -> Result<u64> {
        self.count_nt_rmw(offset)?;
        self.segment.swap_u64(offset, value)
    }

    /// Non-temporal atomic fetch-add of a `u64` word (8-byte-aligned offset),
    /// returning the previous value.
    pub fn nt_fetch_add_u64(&self, offset: usize, delta: u64) -> Result<u64> {
        self.count_nt_rmw(offset)?;
        self.segment.fetch_add_u64(offset, delta)
    }

    /// Non-temporal atomic compare-exchange of a `u64` word (8-byte-aligned
    /// offset): `Ok(previous)` when the word equalled `current` and was
    /// replaced with `new`, `Err(actual)` otherwise. Counted as one RMW
    /// round-trip either way.
    pub fn nt_compare_exchange_u64(
        &self,
        offset: usize,
        current: u64,
        new: u64,
    ) -> Result<std::result::Result<u64, u64>> {
        self.count_nt_rmw(offset)?;
        self.segment.compare_exchange_u64(offset, current, new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheStats, HostCache};
    use crate::dax::DaxDevice;

    fn two_hosts() -> (CxlView, CxlView) {
        let dev = DaxDevice::with_alignment("dax-test", 1 << 16, 4096).unwrap();
        let a = CxlView::new(dev.clone(), HostCache::with_capacity("hostA", 256));
        let b = CxlView::new(dev, HostCache::with_capacity("hostB", 256));
        (a, b)
    }

    #[test]
    fn lines_spanned_counts() {
        assert_eq!(lines_spanned(0, 0), 0);
        assert_eq!(lines_spanned(0, 1), 1);
        assert_eq!(lines_spanned(0, 64), 1);
        assert_eq!(lines_spanned(0, 65), 2);
        assert_eq!(lines_spanned(63, 2), 2);
        assert_eq!(lines_spanned(64, 64), 1);
        assert_eq!(lines_spanned(10, 128), 3);
        // No `offset + len` is formed, so none can overflow.
        assert_eq!(lines_spanned(usize::MAX, 1), 1);
        assert_eq!(lines_spanned(usize::MAX - 3, 8), 2);
    }

    #[test]
    fn offsets_past_the_address_space_are_out_of_bounds() {
        // `offset + len` overflows usize: every entry point must report it,
        // not panic (debug) or wrap past its early check (release).
        let (a, _b) = two_hosts();
        let at = usize::MAX - 3;
        let mut buf = [0u8; 64];
        let oob = |r: Result<()>| matches!(r, Err(crate::ShmError::OutOfBounds { .. }));
        assert!(oob(a.read(at, &mut buf[..8])));
        assert!(oob(a.write(at, &buf[..8])));
        assert!(oob(a.flush(at, 8, FlushKind::Clflushopt)));
        assert!(oob(a.write_flush(at, &buf[..8])));
        assert!(oob(a.read_coherent(at, &mut buf[..8])));
        assert!(oob(a.nt_store(at, &buf[..8])));
        assert!(oob(a.nt_store_lines(usize::MAX - 63, &buf)));
        assert!(oob(a.nt_load(at, &mut buf[..8])));
        assert!(oob(a.nt_fetch_add_u64(at, 1).map(drop)));
        // Nothing was cached, stored or counted on the way to the error.
        assert_eq!(a.cache().resident_lines(), 0);
        assert_eq!(a.cache().stats(), CacheStats::default());
        assert_eq!(a.counters(), CoherenceSnapshot::default());
    }

    #[test]
    fn misaligned_stores_count_and_drop_nothing() {
        let (a, _b) = two_hosts();
        a.write(0, &[7u8; 64]).unwrap();
        let (cache, counters) = (a.cache().stats(), a.counters());
        // A line store that is not whole lines fails before the cached line it
        // covers is dropped; so does a word RMW off its alignment.
        assert_eq!(
            a.nt_store_lines(8, &[0u8; 64]),
            Err(crate::ShmError::NotWholeLines { offset: 8, len: 64 })
        );
        assert_eq!(
            a.nt_fetch_or_u64(4, 1),
            Err(crate::ShmError::Misaligned { offset: 4 })
        );
        assert_eq!(a.cache().resident_lines(), 1);
        assert_eq!(a.cache().stats(), cache);
        assert_eq!(a.counters(), counters);
    }

    #[test]
    fn stale_read_without_protocol() {
        let (a, b) = two_hosts();
        a.write(0, b"fresh!").unwrap();
        // Reader primed its cache earlier.
        let mut buf = [0u8; 6];
        b.read(0, &mut buf).unwrap();
        assert_eq!(&buf, &[0u8; 6]);
        // Writer never flushed: even a coherent read on B sees zeros.
        b.read_coherent(0, &mut buf).unwrap();
        assert_eq!(&buf, &[0u8; 6]);
    }

    #[test]
    fn write_flush_read_coherent_roundtrip() {
        let (a, b) = two_hosts();
        a.write_flush(128, b"payload").unwrap();
        let mut buf = [0u8; 7];
        b.read_coherent(128, &mut buf).unwrap();
        assert_eq!(&buf, b"payload");
    }

    #[test]
    fn uncacheable_policy_skips_cache() {
        let dev = DaxDevice::with_alignment("dax-uc", 1 << 16, 4096).unwrap();
        let a = CxlView::new(dev.clone(), HostCache::with_capacity("hostA", 256))
            .with_policy(CachePolicy::Uncacheable);
        let b = CxlView::new(dev, HostCache::with_capacity("hostB", 256))
            .with_policy(CachePolicy::Uncacheable);
        a.write(0, &[0xAB; 32]).unwrap();
        let mut buf = [0u8; 32];
        b.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0xAB; 32]);
        assert!(a.counters().uncacheable_accesses >= 1);
    }

    #[test]
    fn nt_flag_visible_across_hosts() {
        let (a, b) = two_hosts();
        a.nt_store_u64(4096, 77).unwrap();
        assert_eq!(b.nt_load_u64(4096).unwrap(), 77);
    }

    #[test]
    fn notified_publish_orders_payload_before_flag() {
        // The data plane's expose/notify protocol: the writer publishes the
        // payload with `write_flush` (flush + sfence) *before* nt-storing the
        // notify flag, so a reader that spins on the flag and then issues a
        // coherent read can never observe pre-publish bytes. The property is
        // checked over randomized offsets and lengths, and paired with its
        // converse — skipping the payload flush observably leaks stale
        // data — so the ordering requirement is real, not a tautology of the
        // simulation being too forgiving.
        const FLAG: usize = 32768;
        let mut lcg = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg
        };
        for round in 0..64u64 {
            let (a, b) = two_hosts();
            let len = 1 + (next() % 300) as usize;
            let off = (64 + (next() % 1000) as usize) & !7;
            let payload: Vec<u8> = (0..len)
                .map(|i| (round as u8).wrapping_mul(31).wrapping_add(i as u8) | 1)
                .collect();
            // Prime the reader's cache with the pre-publish (zero) view.
            let mut before = vec![0u8; len];
            b.read(off, &mut before).unwrap();
            // Broken protocol: cached write, then the flag with no flush in
            // between. The flag arrives (nt stores bypass the cache) but the
            // payload is still dirty in the writer's cache — the reader's
            // coherent read must still see the old bytes.
            a.write(off, &payload).unwrap();
            a.nt_store_u64(FLAG, round + 1).unwrap();
            while b.nt_load_u64(FLAG).unwrap() != round + 1 {
                std::thread::yield_now();
            }
            let mut got = vec![0u8; len];
            b.read_coherent(off, &mut got).unwrap();
            assert_eq!(got, before, "round {round}: un-flushed publish leaked");
            // Correct protocol: flush + fence, *then* the flag. Once the
            // reader observes the flag, the coherent read is fresh.
            a.write_flush(off, &payload).unwrap();
            a.nt_store_u64(FLAG, round + 100).unwrap();
            while b.nt_load_u64(FLAG).unwrap() != round + 100 {
                std::thread::yield_now();
            }
            b.read_coherent(off, &mut got).unwrap();
            assert_eq!(got, payload, "round {round}: post-notify read stale");
        }
    }

    #[test]
    fn nt_atomics_visible_across_hosts_and_counted() {
        let (a, b) = two_hosts();
        // Host A sets doorbell bits; host B swaps them out — no lost updates
        // even with a primed cache on either side.
        let mut primed = [0u8; 8];
        b.read(512, &mut primed).unwrap();
        assert_eq!(a.nt_fetch_or_u64(512, 0b01).unwrap(), 0);
        assert_eq!(a.nt_fetch_or_u64(512, 0b10).unwrap(), 0b01);
        assert_eq!(b.nt_swap_u64(512, 0).unwrap(), 0b11);
        assert_eq!(b.nt_load_u64(512).unwrap(), 0);
        assert_eq!(a.nt_fetch_add_u64(520, 5).unwrap(), 0);
        assert_eq!(b.nt_fetch_add_u64(520, 5).unwrap(), 5);
        // Each RMW counts as 8 bytes of nt traffic in each direction.
        let snap = a.counters();
        assert_eq!(snap.nt_bytes_written, 24);
        assert_eq!(snap.nt_bytes_read, 24);
    }

    #[test]
    fn counters_accumulate() {
        let (a, _b) = two_hosts();
        a.write_flush(0, &[1u8; 130]).unwrap();
        a.fence(FenceKind::Mfence);
        let snap = a.counters();
        assert_eq!(snap.bytes_written, 130);
        assert_eq!(snap.clflushopt_lines, lines_spanned(0, 130));
        assert_eq!(snap.fences, 2); // sfence from write_flush + explicit mfence
    }

    #[test]
    fn clflush_kind_counted_separately() {
        let (a, _b) = two_hosts();
        let a = a.with_flush_kind(FlushKind::Clflush);
        a.write_flush(0, &[1u8; 64]).unwrap();
        let snap = a.counters();
        assert_eq!(snap.clflush_lines, 1);
        assert_eq!(snap.clflushopt_lines, 0);
    }

    #[test]
    fn same_view_clones_share_cache_and_counters() {
        let (a, _b) = two_hosts();
        let a2 = a.clone();
        a.write(0, &[9; 8]).unwrap();
        let mut buf = [0u8; 8];
        a2.read(0, &mut buf).unwrap();
        assert_eq!(buf, [9; 8]);
        assert_eq!(a2.counters().bytes_written, 8);
    }
}
