//! Per-host write-back cache simulation.
//!
//! The CXL pooled-memory platform used by the paper provides no hardware cache
//! coherence *between hosts*: a store performed by host A stays in A's CPU
//! caches until it is written back, and host B may keep serving a stale copy of
//! the line from its own caches. This module reproduces that behaviour in
//! software so the layers above (the CXL SHM Arena and the MPI library) must
//! implement the same software coherence protocol the paper describes —
//! flush-after-write and invalidate-before-read — for the system to be correct.
//!
//! Each simulated host owns one [`HostCache`]. Ranks co-located on a host share
//! the cache (intra-host accesses are hardware-coherent, as on the real
//! machine). The cache is a set of 64-byte lines with dirty bits and an
//! approximate-LRU eviction policy; evicting a dirty line writes it back to the
//! device segment, mirroring a write-back cache.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::dax::SharedSegment;
use crate::Result;

/// Cache line size in bytes (x86).
pub const CACHE_LINE_SIZE: usize = 64;

/// Default cache capacity in lines (2 MiB, on the order of a per-core L2).
pub const DEFAULT_CACHE_LINES: usize = 32 * 1024;

/// Counters describing cache behaviour; useful for tests, ablations and the
/// cost models in `cmpi-fabric`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of line reads served from the cache.
    pub read_hits: u64,
    /// Number of line reads that had to fill from the device.
    pub read_misses: u64,
    /// Number of line writes that hit an already-present line.
    pub write_hits: u64,
    /// Number of line writes that allocated a line (write-allocate).
    pub write_misses: u64,
    /// Dirty lines written back because of eviction.
    pub evictions: u64,
    /// Dirty lines written back because of an explicit flush.
    pub flush_writebacks: u64,
    /// Lines invalidated by an explicit flush (dirty or clean).
    pub flush_invalidations: u64,
    /// Bytes stored with non-temporal (cache-bypassing) stores.
    pub nt_store_bytes: u64,
    /// Bytes loaded with non-temporal (cache-bypassing) loads.
    pub nt_load_bytes: u64,
}

struct Line {
    /// Base address of the line this slot holds.
    base: u64,
    /// Logical access tick for approximate LRU.
    tick: u64,
    dirty: bool,
    data: [u8; CACHE_LINE_SIZE],
}

/// Lines per storage chunk (88 KiB: under the allocator's large-block
/// threshold, so a chunk fits whatever hole an earlier universe left).
const CHUNK_LINES: usize = 1024;

/// Bytes of one occupancy page: 64 lines.
const PAGE_SIZE: u64 = 64 * CACHE_LINE_SIZE as u64;

/// Occupancy counters per cache (16 KiB): pages 16 MiB apart share one.
const OCCUPANCY_COUNTERS: usize = 4096;

/// The resident lines of one cache: a fixed open-addressing table of slot
/// numbers over line storage that grows a chunk at a time and never moves.
///
/// Line bases are looked up on the hottest path of the whole simulation (every
/// cached byte moves through here), and a cache has a fixed capacity, so the
/// table is sized once for it: no rehash, and no allocation in the steady
/// state beyond a chunk whenever the resident set reaches a new high. A map of
/// whole lines that regrows by doubling is not an alternative: a default
/// cache filling up goes 0.7 → 1.4 → 2.9 → 5.8 MB, every outgrown table stays
/// in the heap of whichever rank thread filled it, and the resident set of a
/// process that launches universes one after the other then depends on which
/// allocator arena the next launch's rank threads inherit (the `e2e`
/// benchmark's `peak_rss_mib` read 69.8 or 74.9 MiB on one commit).
struct Lines {
    /// `slot + 1` of a resident line at, or linearly probed on from, the
    /// position its base hashes to; 0 = empty. A power of two ≥ twice the
    /// cache's capacity long, so it never fills and probes stay short.
    table: Vec<u32>,
    /// Slot `s` is `chunks[s / CHUNK_LINES][s % CHUNK_LINES]`; slots are
    /// handed out in order, so the host touches only storage that has held a
    /// line.
    chunks: Vec<Vec<Line>>,
    /// Slots that hold no resident line, last freed first.
    free: Vec<u32>,
    /// Resident lines of the pages whose number is `i` modulo the length: a
    /// zero proves a page holds no resident line, so a range operation skips
    /// it instead of probing its 64 lines.
    occupancy: Vec<u32>,
    len: usize,
    /// Table position the next eviction sample starts at.
    hand: usize,
}

impl Lines {
    fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity < u32::MAX as usize / 2,
            "cache of {capacity} lines"
        );
        Lines {
            table: vec![0; (2 * capacity).next_power_of_two()],
            chunks: Vec::with_capacity(capacity.div_ceil(CHUNK_LINES)),
            free: Vec::with_capacity(capacity),
            occupancy: vec![0; OCCUPANCY_COUNTERS],
            len: 0,
            hand: 0,
        }
    }

    /// Table position a line base hashes to. A splitmix64-style finalizer:
    /// full avalanche at a few arithmetic ops (a plain multiply would leave
    /// the 6 zero alignment bits of a base dead in the low bits indexed by).
    fn home(&self, base: u64) -> usize {
        let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize & (self.table.len() - 1)
    }

    /// Occupancy counter of the page holding the line at `base`.
    fn counter(base: u64) -> usize {
        (base / PAGE_SIZE) as usize % OCCUPANCY_COUNTERS
    }

    fn next(&self, pos: usize) -> usize {
        (pos + 1) & (self.table.len() - 1)
    }

    fn line(&self, slot: u32) -> &Line {
        &self.chunks[slot as usize / CHUNK_LINES][slot as usize % CHUNK_LINES]
    }

    fn line_mut(&mut self, slot: u32) -> &mut Line {
        &mut self.chunks[slot as usize / CHUNK_LINES][slot as usize % CHUNK_LINES]
    }

    /// `(table position, slot)` of the resident line at `base`.
    fn find(&self, base: u64) -> Option<(usize, u32)> {
        let mut pos = self.home(base);
        loop {
            let slot = self.table[pos].checked_sub(1)?;
            if self.line(slot).base == base {
                return Some((pos, slot));
            }
            pos = self.next(pos);
        }
    }

    /// Make `line` resident; no line with its base is.
    fn insert(&mut self, line: Line) -> &mut Line {
        let base = line.base;
        let mut pos = self.home(base);
        while self.table[pos] != 0 {
            pos = self.next(pos);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                *self.line_mut(slot) = line;
                slot
            }
            None => {
                // Every slot handed out so far holds a resident line.
                let slot = self.len;
                if slot.is_multiple_of(CHUNK_LINES) {
                    self.chunks.push(Vec::with_capacity(CHUNK_LINES));
                }
                self.chunks[slot / CHUNK_LINES].push(line);
                slot as u32
            }
        };
        self.table[pos] = slot + 1;
        self.occupancy[Self::counter(base)] += 1;
        self.len += 1;
        self.line_mut(slot)
    }

    /// Drop the line at `base`; what it held stays readable until the slot is
    /// reused.
    fn remove(&mut self, base: u64) -> Option<&Line> {
        let (mut hole, slot) = self.find(base)?;
        // Close the hole: move up every later line of the probe run that
        // would otherwise be cut off from the position it hashes to.
        let mask = self.table.len() - 1;
        let mut pos = self.next(hole);
        while let Some(other) = self.table[pos].checked_sub(1) {
            let home = self.home(self.line(other).base);
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.table[hole] = other + 1;
                hole = pos;
            }
            pos = self.next(pos);
        }
        self.table[hole] = 0;
        self.free.push(slot);
        self.occupancy[Self::counter(base)] -= 1;
        self.len -= 1;
        Some(self.line(slot))
    }

    /// The first line base in `from..=last` whose page's occupancy counter
    /// is not zero: the next one a range operation has to probe.
    fn next_candidate(&self, mut from: u64, last: u64) -> Option<u64> {
        while from <= last && self.len > 0 {
            if self.occupancy[Self::counter(from)] != 0 {
                return Some(from);
            }
            from = (from / PAGE_SIZE + 1) * PAGE_SIZE;
        }
        None
    }

    /// Remove the resident lines among those at bases `first..=last`, in
    /// address order, handing each to `removed`.
    fn remove_range(
        &mut self,
        first: u64,
        last: u64,
        mut removed: impl FnMut(&Line) -> Result<()>,
    ) -> Result<()> {
        let mut at = self.next_candidate(first, last);
        while let Some(base) = at {
            if let Some(line) = self.remove(base) {
                removed(line)?;
            }
            at = self.next_candidate(base + CACHE_LINE_SIZE as u64, last);
        }
        Ok(())
    }

    /// Whether any line at bases `first..=last` is resident.
    fn any_resident(&self, first: u64, last: u64) -> bool {
        std::iter::successors(self.next_candidate(first, last), |&base| {
            self.next_candidate(base + CACHE_LINE_SIZE as u64, last)
        })
        .any(|base| self.find(base).is_some())
    }

    /// Base of the least recently used among the next `sample` resident lines
    /// in table order, starting where the previous call stopped: every
    /// eviction looks at fresh candidates and scans a few table entries, where
    /// sampling from the start of the table would empty its head and end up
    /// walking the whole of it.
    fn oldest_of_next(&mut self, sample: usize) -> Option<u64> {
        let mut oldest: Option<&Line> = None;
        let mut seen = 0;
        let mut pos = self.hand;
        for _ in 0..self.table.len() {
            if seen == sample.min(self.len) {
                break;
            }
            if let Some(slot) = self.table[pos].checked_sub(1) {
                let line = self.line(slot);
                if oldest.is_none_or(|o| line.tick < o.tick) {
                    oldest = Some(line);
                }
                seen += 1;
            }
            pos = self.next(pos);
        }
        let base = oldest.map(|line| line.base);
        self.hand = pos;
        base
    }

    /// The resident lines, in table order.
    fn iter(&self) -> impl Iterator<Item = &Line> {
        self.table
            .iter()
            .filter_map(|entry| Some(self.line(entry.checked_sub(1)?)))
    }

    fn clear(&mut self) {
        self.table.fill(0);
        self.chunks.clear();
        self.free.clear();
        self.occupancy.fill(0);
        self.len = 0;
        self.hand = 0;
    }
}

struct CacheInner {
    lines: Lines,
    tick: u64,
    stats: CacheStats,
}

/// Write-back cache belonging to one simulated host.
pub struct HostCache {
    inner: Mutex<CacheInner>,
    capacity_lines: usize,
    name: String,
}

impl std::fmt::Debug for HostCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("HostCache")
            .field("name", &self.name)
            .field("capacity_lines", &self.capacity_lines)
            .field("resident_lines", &inner.lines.len)
            .finish()
    }
}

impl HostCache {
    /// Create a cache with the default capacity.
    pub fn new(name: impl Into<String>) -> Arc<Self> {
        Self::with_capacity(name, DEFAULT_CACHE_LINES)
    }

    /// Create a cache that can hold at most `capacity_lines` lines.
    pub fn with_capacity(name: impl Into<String>, capacity_lines: usize) -> Arc<Self> {
        let capacity_lines = capacity_lines.max(1);
        Arc::new(HostCache {
            inner: Mutex::new(CacheInner {
                lines: Lines::with_capacity(capacity_lines),
                tick: 0,
                stats: CacheStats::default(),
            }),
            capacity_lines,
            name: name.into(),
        })
    }

    /// Host name this cache belongs to (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Maximum number of resident lines.
    pub fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.inner.lock().lines.len
    }

    /// Snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Reset the counters (not the contents).
    pub fn reset_stats(&self) {
        self.inner.lock().stats = CacheStats::default();
    }

    fn line_base(offset: usize) -> u64 {
        (offset as u64 / CACHE_LINE_SIZE as u64) * CACHE_LINE_SIZE as u64
    }

    /// Bases of the first and last line of a non-empty, bounds-checked range.
    fn line_range(offset: usize, len: usize) -> (u64, u64) {
        (Self::line_base(offset), Self::line_base(offset + len - 1))
    }

    /// Evict one approximately-least-recently-used line, writing it back to the
    /// segment if dirty. Sampling a handful of entries keeps eviction O(1).
    fn evict_one(inner: &mut CacheInner, segment: &SharedSegment) -> Result<()> {
        let victim = inner.lines.oldest_of_next(16);
        if let Some(line) = victim.and_then(|base| inner.lines.remove(base)) {
            if line.dirty {
                segment.write_relaxed(line.base as usize, &line.data)?;
                inner.stats.evictions += 1;
            }
        }
        Ok(())
    }

    /// How many lines `len` bytes at `offset` are, when they are whole lines,
    /// none of them is resident and the cache has room for all of them — the
    /// case in which the per-line paths allocate every line and evict none.
    fn absent_with_room(&self, lines: &Lines, offset: usize, len: usize) -> Option<u64> {
        if !offset.is_multiple_of(CACHE_LINE_SIZE) || !len.is_multiple_of(CACHE_LINE_SIZE) {
            return None;
        }
        let count = len / CACHE_LINE_SIZE;
        let (first, last) = Self::line_range(offset, len);
        (lines.len + count <= self.capacity_lines && !lines.any_resident(first, last))
            .then_some(count as u64)
    }

    /// Make room for, and allocate, the absent line at `base`. `fill` loads
    /// it from the device; a line that is about to be fully overwritten needs
    /// no fill (every byte is replaced by the caller), just capacity
    /// maintenance.
    fn alloc_line<'a>(
        inner: &'a mut CacheInner,
        segment: &SharedSegment,
        base: u64,
        capacity: usize,
        fill: bool,
    ) -> Result<&'a mut Line> {
        while inner.lines.len >= capacity {
            Self::evict_one(inner, segment)?;
        }
        let mut data = [0u8; CACHE_LINE_SIZE];
        if fill {
            let avail = segment.len().saturating_sub(base as usize);
            let take = CACHE_LINE_SIZE.min(avail);
            segment.read(base as usize, &mut data[..take])?;
        }
        let tick = inner.tick;
        Ok(inner.lines.insert(Line {
            base,
            tick,
            dirty: false,
            data,
        }))
    }

    /// Cached read: lines are filled from the segment on a miss and served from
    /// the cache afterwards — so a peer host's unflushed (or even flushed but
    /// locally cached) updates are **not** observed. That is the point.
    pub fn read(&self, segment: &SharedSegment, offset: usize, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        segment.check_bounds(offset, buf.len())?;
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(lines) = self.absent_with_room(&inner.lines, offset, buf.len()) {
            // The per-line path would fill each line from the device and
            // insert it, in address order: one device read does the fills.
            segment.read(offset, buf)?;
            let (whole, _) = buf.as_chunks::<CACHE_LINE_SIZE>();
            for (base, data) in (offset as u64..).step_by(CACHE_LINE_SIZE).zip(whole) {
                inner.lines.insert(Line {
                    base,
                    tick,
                    dirty: false,
                    data: *data,
                });
            }
            inner.stats.read_misses += lines;
            return Ok(());
        }
        let mut pos = 0usize;
        while pos < buf.len() {
            let addr = offset + pos;
            let base = Self::line_base(addr);
            let in_line = addr - base as usize;
            let take = (CACHE_LINE_SIZE - in_line).min(buf.len() - pos);
            let line = if let Some((_, slot)) = inner.lines.find(base) {
                inner.stats.read_hits += 1;
                inner.lines.line_mut(slot)
            } else {
                inner.stats.read_misses += 1;
                Self::alloc_line(inner, segment, base, self.capacity_lines, true)?
            };
            line.tick = tick;
            buf[pos..pos + take].copy_from_slice(&line.data[in_line..in_line + take]);
            pos += take;
        }
        Ok(())
    }

    /// Cached write (write-allocate, write-back): data lands in this host's
    /// cache only and is **not** visible to other hosts until flushed or
    /// evicted.
    pub fn write(&self, segment: &SharedSegment, offset: usize, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        segment.check_bounds(offset, data.len())?;
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.tick += 1;
        let tick = inner.tick;
        let mut pos = 0usize;
        while pos < data.len() {
            let addr = offset + pos;
            let base = Self::line_base(addr);
            let in_line = addr - base as usize;
            let take = (CACHE_LINE_SIZE - in_line).min(data.len() - pos);
            let line = if let Some((_, slot)) = inner.lines.find(base) {
                inner.stats.write_hits += 1;
                inner.lines.line_mut(slot)
            } else {
                inner.stats.write_misses += 1;
                // Full-line overwrite: write-allocate without the device fill.
                let fill = take != CACHE_LINE_SIZE;
                Self::alloc_line(inner, segment, base, self.capacity_lines, fill)?
            };
            line.data[in_line..in_line + take].copy_from_slice(&data[pos..pos + take]);
            line.dirty = true;
            line.tick = tick;
            pos += take;
        }
        Ok(())
    }

    /// Write `line` back if it is dirty and count it as flushed.
    fn write_back(stats: &mut CacheStats, segment: &SharedSegment, line: &Line) -> Result<()> {
        if line.dirty {
            segment.write_relaxed(line.base as usize, &line.data)?;
            stats.flush_writebacks += 1;
        }
        stats.flush_invalidations += 1;
        Ok(())
    }

    /// Flush (write back if dirty, then invalidate) every cache line overlapping
    /// `[offset, offset+len)`. This models `clflush`/`clflushopt`; the
    /// *performance* difference between the two is handled by the cost model in
    /// `cmpi-fabric`, the functional effect is identical.
    ///
    /// Returns the number of lines that were flushed.
    pub fn flush_range(&self, segment: &SharedSegment, offset: usize, len: usize) -> Result<u64> {
        segment.check_bounds(offset, len)?;
        if len == 0 {
            return Ok(0);
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let (first, last) = Self::line_range(offset, len);
        let mut flushed = 0u64;
        inner.lines.remove_range(first, last, |line| {
            flushed += 1;
            Self::write_back(&mut inner.stats, segment, line)
        })?;
        Ok(flushed)
    }

    /// Cached write of `data`, then a flush of the lines it covers:
    /// [`HostCache::write`] then [`HostCache::flush_range`].
    ///
    /// When `data` is whole lines, none of them resident, and the cache has
    /// room for them all, that per-line path allocates each line without a
    /// fill or an eviction, and the flush writes each back and drops it: the
    /// cache is left as it was. Those lines go straight to the device then,
    /// under one lock hold, counted as the per-line path counts them.
    pub(crate) fn write_flush(
        &self,
        segment: &SharedSegment,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        segment.check_bounds(offset, data.len())?;
        if data.is_empty() {
            return Ok(());
        }
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        if let Some(lines) = self.absent_with_room(&inner.lines, offset, data.len()) {
            inner.tick += 1;
            segment.write_relaxed(offset, data)?;
            inner.stats.write_misses += lines;
            inner.stats.flush_writebacks += lines;
            inner.stats.flush_invalidations += lines;
            return Ok(());
        }
        drop(guard);
        self.write(segment, offset, data)?;
        self.flush_range(segment, offset, data.len())?;
        Ok(())
    }

    /// Write back and invalidate every resident line (a whole-cache flush, used
    /// by tests and by `finalize`).
    pub fn flush_all(&self, segment: &SharedSegment) -> Result<u64> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let flushed = inner.lines.len as u64;
        for line in inner.lines.iter() {
            Self::write_back(&mut inner.stats, segment, line)?;
        }
        inner.lines.clear();
        Ok(flushed)
    }

    /// Non-temporal store: bypass the cache and write directly to the device,
    /// invalidating any locally cached copies of the touched lines so later
    /// cached reads do not resurrect stale data.
    pub fn nt_store(&self, segment: &SharedSegment, offset: usize, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        self.nt_store_bypass(segment, offset, data.len())?;
        segment.write(offset, data)
    }

    /// Non-temporal store of whole lines, each as one 64-byte direct store
    /// (see [`SharedSegment::write_lines`]); bypasses the cache like
    /// [`HostCache::nt_store`].
    pub fn nt_store_lines(
        &self,
        segment: &SharedSegment,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        segment.check_lines(offset, data.len())?;
        self.nt_store_bypass(segment, offset, data.len())?;
        segment.write_lines(offset, data)
    }

    /// Drop any cached copy of the lines `len` bytes at `offset` cover — a
    /// store about to go around the cache — and count the bytes.
    fn nt_store_bypass(&self, segment: &SharedSegment, offset: usize, len: usize) -> Result<()> {
        segment.check_bounds(offset, len)?;
        if len == 0 {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        let (first, last) = Self::line_range(offset, len);
        inner.lines.remove_range(first, last, |_| Ok(()))?;
        inner.stats.nt_store_bytes += len as u64;
        Ok(())
    }

    /// Account a non-temporal atomic read-modify-write of the aligned word at
    /// `offset` and, like [`HostCache::nt_store`], drop any cached copy of the
    /// covering line so a later eviction cannot clobber the atomically updated
    /// word. The atomic itself runs directly on the device segment; an RMW
    /// costs one 8-byte load plus one 8-byte store of non-temporal traffic.
    pub fn nt_rmw_prepare(&self, offset: usize) {
        let mut inner = self.inner.lock();
        inner.lines.remove(Self::line_base(offset));
        inner.stats.nt_store_bytes += 8;
        inner.stats.nt_load_bytes += 8;
    }

    /// Non-temporal load: bypass the cache and read directly from the device.
    pub fn nt_load(&self, segment: &SharedSegment, offset: usize, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        segment.read(offset, buf)?;
        self.inner.lock().stats.nt_load_bytes += buf.len() as u64;
        Ok(())
    }

    /// Drop every resident line without writing anything back. Used by tests to
    /// model power loss / reset of a host.
    pub fn discard_all(&self) {
        self.inner.lock().lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dax::SharedSegment;

    fn seg(len: usize) -> SharedSegment {
        SharedSegment::new(len)
    }

    #[test]
    fn line_table_agrees_with_a_reference_map_under_churn() {
        // 48 lines in a 128-entry table, bases drawn from 96: probe runs
        // form, wrap around the end of the table and are cut by removals.
        let mut lines = Lines::with_capacity(48);
        let mut reference = std::collections::HashMap::new();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let base = (x >> 20) % 96 * CACHE_LINE_SIZE as u64;
            if reference.contains_key(&base) {
                let line = lines.remove(base).expect("resident");
                assert_eq!(Some(line.tick), reference.remove(&base));
            } else if reference.len() < 48 {
                assert!(lines.find(base).is_none());
                lines.insert(Line {
                    base,
                    tick: step,
                    dirty: false,
                    data: [0; CACHE_LINE_SIZE],
                });
                reference.insert(base, step);
            }
            assert_eq!(lines.len, reference.len());
            for (&base, &tick) in &reference {
                let (_, slot) = lines.find(base).expect("resident");
                assert_eq!(lines.line(slot).tick, tick);
            }
            assert_eq!(lines.iter().count(), reference.len());
        }
        // Storage never outgrew the most lines ever resident at once.
        assert_eq!(lines.chunks.len(), 1);
        assert!(lines.chunks[0].len() <= 48);
    }

    #[test]
    fn cached_write_not_visible_until_flush() {
        let segment = seg(4096);
        let host_a = HostCache::with_capacity("hostA", 128);
        let host_b = HostCache::with_capacity("hostB", 128);

        host_a.write(&segment, 100, b"hello").unwrap();

        // Host B reads through its own cache: the device still holds zeros.
        let mut buf = [0u8; 5];
        host_b.read(&segment, 100, &mut buf).unwrap();
        assert_eq!(&buf, &[0; 5], "unflushed write must not be visible");

        // After host A flushes, host B still sees its stale cached line...
        host_a.flush_range(&segment, 100, 5).unwrap();
        host_b.read(&segment, 100, &mut buf).unwrap();
        assert_eq!(&buf, &[0; 5], "reader cache still holds the stale line");

        // ...until host B invalidates (flushes) its own copy.
        host_b.flush_range(&segment, 100, 5).unwrap();
        host_b.read(&segment, 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn same_host_sees_own_writes() {
        let segment = seg(4096);
        let host = HostCache::with_capacity("host", 128);
        host.write(&segment, 0, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        host.read(&segment, 0, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn nt_store_visible_to_nt_load_immediately() {
        let segment = seg(4096);
        let host_a = HostCache::with_capacity("hostA", 128);
        let host_b = HostCache::with_capacity("hostB", 128);
        host_a.nt_store(&segment, 64, &[7; 8]).unwrap();
        let mut buf = [0u8; 8];
        host_b.nt_load(&segment, 64, &mut buf).unwrap();
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn nt_store_invalidates_own_cached_line() {
        let segment = seg(4096);
        let host = HostCache::with_capacity("host", 128);
        // Prime the cache with the old value.
        let mut buf = [0u8; 8];
        host.read(&segment, 128, &mut buf).unwrap();
        // NT store a new value; the cached copy must not shadow it.
        host.nt_store(&segment, 128, &[9; 8]).unwrap();
        host.read(&segment, 128, &mut buf).unwrap();
        assert_eq!(buf, [9; 8]);
    }

    #[test]
    fn eviction_writes_back_dirty_lines() {
        let segment = seg(64 * 64);
        // Tiny cache: 4 lines.
        let host = HostCache::with_capacity("host", 4);
        // Dirty 32 distinct lines; most must be evicted and written back.
        for i in 0..32usize {
            host.write(&segment, i * 64, &[i as u8; 64]).unwrap();
        }
        host.flush_all(&segment).unwrap();
        // Every line must now be visible in the raw segment.
        for i in 0..32usize {
            let mut buf = [0u8; 64];
            segment.read(i * 64, &mut buf).unwrap();
            assert_eq!(buf, [i as u8; 64], "line {i} lost");
        }
        let stats = host.stats();
        assert!(stats.evictions > 0, "expected at least one eviction");
    }

    #[test]
    fn flush_range_spanning_lines() {
        let segment = seg(4096);
        let host = HostCache::with_capacity("host", 128);
        // Write 200 bytes starting mid-line: spans 4 lines.
        host.write(&segment, 40, &[5u8; 200]).unwrap();
        let flushed = host.flush_range(&segment, 40, 200).unwrap();
        assert_eq!(flushed, 4);
        let mut buf = [0u8; 200];
        segment.read(40, &mut buf).unwrap();
        assert_eq!(buf, [5u8; 200]);
    }

    #[test]
    fn stats_counters_move() {
        let segment = seg(4096);
        let host = HostCache::with_capacity("host", 128);
        let mut buf = [0u8; 64];
        host.read(&segment, 0, &mut buf).unwrap();
        host.read(&segment, 0, &mut buf).unwrap();
        host.write(&segment, 0, &[1; 64]).unwrap();
        host.flush_range(&segment, 0, 64).unwrap();
        let s = host.stats();
        assert_eq!(s.read_misses, 1);
        assert!(s.read_hits >= 1);
        assert_eq!(s.write_hits, 1);
        assert_eq!(s.flush_writebacks, 1);
        assert_eq!(s.flush_invalidations, 1);
        host.reset_stats();
        assert_eq!(host.stats(), CacheStats::default());
    }

    #[test]
    fn discard_loses_unflushed_writes() {
        let segment = seg(4096);
        let host = HostCache::with_capacity("host", 128);
        host.write(&segment, 0, &[0xEE; 64]).unwrap();
        host.discard_all();
        let mut buf = [0u8; 64];
        segment.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64], "discarded dirty data must not reach memory");
    }

    #[test]
    fn read_partial_line_at_end_of_device() {
        // Device smaller than a cache line: fills must clamp.
        let segment = seg(48);
        let host = HostCache::with_capacity("host", 8);
        host.write(&segment, 0, &[3u8; 48]).unwrap();
        let mut buf = [0u8; 48];
        host.read(&segment, 0, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 48]);
    }

    #[test]
    fn out_of_bounds_propagates() {
        let segment = seg(64);
        let host = HostCache::with_capacity("host", 8);
        let mut buf = [0u8; 16];
        assert!(host.read(&segment, 60, &mut buf).is_err());
        assert!(host.write(&segment, 60, &buf).is_err());
    }
}
