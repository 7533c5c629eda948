//! Fixed-capacity multi-level hash index stored in CXL shared memory.
//!
//! The CXL SHM Arena needs to map object names to (offset, size) pairs without
//! dynamic resizing and while tolerating concurrent lookups (Section 3.1). The
//! paper adopts the classic multi-level hashing scheme: `L` levels of buckets,
//! each level sized with a distinct prime bucket count, flattened into one
//! contiguous array inside the metadata region. A key hashes to exactly one
//! candidate slot per level; insertion takes the first free candidate, lookup
//! probes the levels in order.
//!
//! The paper's production configuration uses 10 levels with the first level
//! capped at 200,000 slots, giving prime level sizes 199,999 down to 199,873
//! and 1,999,260 slots in total; [`HashConfig::paper`] reproduces exactly that
//! (verified by a unit test). Tests and examples use much smaller
//! configurations.
//!
//! All slot accesses go through the software-coherence protocol
//! (`write_flush` / `read_coherent`) so that a slot created by one host is
//! observable by every other host.

use crate::coherence::CxlView;
use crate::error::ShmError;
use crate::Result;

/// Maximum object-name length in bytes (the slot stores a fixed 64-byte field
/// with a terminating length byte semantics handled separately).
pub const MAX_NAME_LEN: usize = 63;

/// On-device size of one slot, cache-line aligned (2 lines).
///
/// Layout: `used: u64 | name_len: u64 | name: 64 bytes | offset: u64 | size: u64`
/// = 96 bytes, padded to 128.
pub const SLOT_SIZE: usize = 128;

const SLOT_USED: usize = 0;
const SLOT_NAME_LEN: usize = 8;
const SLOT_NAME: usize = 16;
const SLOT_OFFSET: usize = 80;
const SLOT_OBJ_SIZE: usize = 88;

/// Metadata describing one shared-memory object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectMeta {
    /// Object name (hash key).
    pub name: String,
    /// Byte offset of the object payload, relative to the device base.
    pub offset: u64,
    /// Object size in bytes.
    pub size: u64,
}

/// Configuration of the multi-level hash: number of levels and the slot count
/// cap of the first level. Each level's actual size is the largest prime not
/// exceeding the previous level's size (strictly decreasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashConfig {
    /// Number of levels (≥ 1).
    pub levels: usize,
    /// Upper bound on the slot count of level 1.
    pub level1_slots: usize,
}

impl HashConfig {
    /// Create and validate a configuration.
    pub fn new(levels: usize, level1_slots: usize) -> Result<Self> {
        let cfg = HashConfig {
            levels,
            level1_slots,
        };
        cfg.level_sizes()?;
        Ok(cfg)
    }

    /// The paper's production configuration: 10 levels, level 1 capped at
    /// 200,000 slots (1,999,260 slots in total).
    pub fn paper() -> Self {
        HashConfig {
            levels: 10,
            level1_slots: 200_000,
        }
    }

    /// A small configuration suitable for unit tests.
    pub fn small() -> Self {
        HashConfig {
            levels: 4,
            level1_slots: 101,
        }
    }

    /// Prime slot counts per level (strictly decreasing).
    pub fn level_sizes(&self) -> Result<Vec<usize>> {
        if self.levels == 0 {
            return Err(ShmError::InvalidConfig("hash levels must be ≥ 1".into()));
        }
        if self.level1_slots < 2 {
            return Err(ShmError::InvalidConfig(
                "level1_slots must be ≥ 2 so a prime exists".into(),
            ));
        }
        let mut sizes = Vec::with_capacity(self.levels);
        let mut bound = self.level1_slots;
        for _ in 0..self.levels {
            let p = largest_prime_at_most(bound).ok_or_else(|| {
                ShmError::InvalidConfig(format!(
                    "no prime available below {bound}; too many levels for level1_slots"
                ))
            })?;
            sizes.push(p);
            if p < 3 {
                // Next level would need a prime < 2 — only allowed if this is the last level.
                if sizes.len() < self.levels {
                    return Err(ShmError::InvalidConfig(
                        "too many levels for level1_slots".into(),
                    ));
                }
            }
            bound = p - 1;
        }
        Ok(sizes)
    }

    /// Total number of slots across every level.
    pub fn total_slots(&self) -> Result<usize> {
        Ok(self.level_sizes()?.iter().sum())
    }
}

/// Largest prime `p ≤ n`, or `None` if there is none (n < 2).
pub fn largest_prime_at_most(n: usize) -> Option<usize> {
    if n < 2 {
        return None;
    }
    let mut candidate = n;
    loop {
        if is_prime(candidate) {
            return Some(candidate);
        }
        if candidate == 2 {
            return None;
        }
        candidate -= 1;
    }
}

/// Deterministic primality test by trial division (sufficient for slot counts).
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3usize;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

/// FNV-1a hash with a per-level seed, so each level probes an independent slot.
fn hash_name(name: &str, level: usize) -> u64 {
    let mut h: u64 =
        0xcbf2_9ce4_8422_2325 ^ ((level as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The multi-level hash index, attached to a region of a dax device through a
/// per-host [`CxlView`].
#[derive(Clone)]
pub struct MultiLevelHash {
    view: CxlView,
    base: usize,
    level_sizes: Vec<usize>,
    /// Cumulative slot offset at which each level starts.
    level_starts: Vec<usize>,
    total_slots: usize,
}

impl std::fmt::Debug for MultiLevelHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiLevelHash")
            .field("base", &self.base)
            .field("levels", &self.level_sizes.len())
            .field("total_slots", &self.total_slots)
            .finish()
    }
}

impl MultiLevelHash {
    /// Attach to a hash region at `base` (device byte offset). Does not touch
    /// the device; call [`MultiLevelHash::format`] once to initialise it.
    pub fn attach(view: CxlView, base: usize, config: HashConfig) -> Result<Self> {
        let level_sizes = config.level_sizes()?;
        let mut level_starts = Vec::with_capacity(level_sizes.len());
        let mut acc = 0usize;
        for &s in &level_sizes {
            level_starts.push(acc);
            acc += s;
        }
        let total_slots = acc;
        let end = base + total_slots * SLOT_SIZE;
        if end > view.len() {
            return Err(ShmError::DeviceTooSmall {
                required: end,
                available: view.len(),
            });
        }
        Ok(MultiLevelHash {
            view,
            base,
            level_sizes,
            level_starts,
            total_slots,
        })
    }

    /// Total number of slots across all levels.
    pub fn total_slots(&self) -> usize {
        self.total_slots
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.level_sizes.len()
    }

    /// Slot counts per level.
    pub fn level_sizes(&self) -> &[usize] {
        &self.level_sizes
    }

    fn slot_addr(&self, level: usize, index: usize) -> usize {
        self.base + (self.level_starts[level] + index) * SLOT_SIZE
    }

    fn candidate(&self, name: &str, level: usize) -> usize {
        (hash_name(name, level) % self.level_sizes[level] as u64) as usize
    }

    /// Zero the `used` flag of every slot. Called once by the initialising host.
    pub fn format(&self) -> Result<()> {
        for level in 0..self.level_sizes.len() {
            for idx in 0..self.level_sizes[level] {
                let addr = self.slot_addr(level, idx);
                self.view.nt_store_u64(addr + SLOT_USED, 0)?;
            }
        }
        Ok(())
    }

    fn validate_name(name: &str) -> Result<()> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(ShmError::InvalidObjectName(name.to_string()));
        }
        Ok(())
    }

    fn read_slot(&self, addr: usize) -> Result<Option<ObjectMeta>> {
        // The used flag is accessed non-temporally (it doubles as a publication
        // flag); the body uses the coherent-read protocol.
        let used = self.view.nt_load_u64(addr + SLOT_USED)?;
        if used == 0 {
            return Ok(None);
        }
        let mut body = [0u8; SLOT_SIZE - 8];
        self.view.read_coherent(addr + SLOT_NAME_LEN, &mut body)?;
        let name_len = u64::from_le_bytes(body[..8].try_into().unwrap()) as usize;
        if name_len == 0 || name_len > MAX_NAME_LEN {
            return Err(ShmError::InvalidHeader(format!(
                "corrupt slot at {addr}: name_len {name_len}"
            )));
        }
        let name_bytes = &body[SLOT_NAME - SLOT_NAME_LEN..SLOT_NAME - SLOT_NAME_LEN + name_len];
        let name = String::from_utf8_lossy(name_bytes).into_owned();
        let offset = u64::from_le_bytes(
            body[SLOT_OFFSET - SLOT_NAME_LEN..SLOT_OFFSET - SLOT_NAME_LEN + 8]
                .try_into()
                .unwrap(),
        );
        let size = u64::from_le_bytes(
            body[SLOT_OBJ_SIZE - SLOT_NAME_LEN..SLOT_OBJ_SIZE - SLOT_NAME_LEN + 8]
                .try_into()
                .unwrap(),
        );
        Ok(Some(ObjectMeta { name, offset, size }))
    }

    fn write_slot(&self, addr: usize, meta: &ObjectMeta) -> Result<()> {
        let mut body = [0u8; SLOT_SIZE - 8];
        body[..8].copy_from_slice(&(meta.name.len() as u64).to_le_bytes());
        body[SLOT_NAME - SLOT_NAME_LEN..SLOT_NAME - SLOT_NAME_LEN + meta.name.len()]
            .copy_from_slice(meta.name.as_bytes());
        body[SLOT_OFFSET - SLOT_NAME_LEN..SLOT_OFFSET - SLOT_NAME_LEN + 8]
            .copy_from_slice(&meta.offset.to_le_bytes());
        body[SLOT_OBJ_SIZE - SLOT_NAME_LEN..SLOT_OBJ_SIZE - SLOT_NAME_LEN + 8]
            .copy_from_slice(&meta.size.to_le_bytes());
        // Publish the body first, then raise the used flag non-temporally so a
        // concurrent reader never observes a half-written slot as used.
        self.view.write_flush(addr + SLOT_NAME_LEN, &body)?;
        self.view.nt_store_u64(addr + SLOT_USED, 1)?;
        Ok(())
    }

    /// Insert a new object. Fails with [`ShmError::ObjectExists`] if the name is
    /// already present and [`ShmError::HashFull`] if every candidate slot is
    /// taken by another name.
    pub fn insert(&self, name: &str, offset: u64, size: u64) -> Result<()> {
        Self::validate_name(name)?;
        // First pass: reject duplicates anywhere in the probe sequence.
        if self.lookup(name)?.is_some() {
            return Err(ShmError::ObjectExists(name.to_string()));
        }
        for level in 0..self.level_sizes.len() {
            let addr = self.slot_addr(level, self.candidate(name, level));
            if self.read_slot(addr)?.is_none() {
                let meta = ObjectMeta {
                    name: name.to_string(),
                    offset,
                    size,
                };
                self.write_slot(addr, &meta)?;
                return Ok(());
            }
        }
        Err(ShmError::HashFull)
    }

    /// Look an object up by name, probing each level in turn.
    pub fn lookup(&self, name: &str) -> Result<Option<ObjectMeta>> {
        Self::validate_name(name)?;
        for level in 0..self.level_sizes.len() {
            let addr = self.slot_addr(level, self.candidate(name, level));
            if let Some(meta) = self.read_slot(addr)? {
                if meta.name == name {
                    return Ok(Some(meta));
                }
            }
        }
        Ok(None)
    }

    /// Remove an object by name, returning its metadata.
    pub fn remove(&self, name: &str) -> Result<ObjectMeta> {
        Self::validate_name(name)?;
        for level in 0..self.level_sizes.len() {
            let addr = self.slot_addr(level, self.candidate(name, level));
            if let Some(meta) = self.read_slot(addr)? {
                if meta.name == name {
                    self.view.nt_store_u64(addr + SLOT_USED, 0)?;
                    return Ok(meta);
                }
            }
        }
        Err(ShmError::ObjectNotFound(name.to_string()))
    }

    /// Number of occupied slots (scans the whole table; intended for tests and
    /// diagnostics, not the hot path).
    pub fn count_used(&self) -> Result<usize> {
        let mut count = 0;
        for level in 0..self.level_sizes.len() {
            for idx in 0..self.level_sizes[level] {
                let addr = self.slot_addr(level, idx);
                if self.view.nt_load_u64(addr + SLOT_USED)? != 0 {
                    count += 1;
                }
            }
        }
        Ok(count)
    }

    /// Metadata of every occupied slot (diagnostics).
    pub fn iter_used(&self) -> Result<Vec<ObjectMeta>> {
        let mut out = Vec::new();
        for level in 0..self.level_sizes.len() {
            for idx in 0..self.level_sizes[level] {
                let addr = self.slot_addr(level, idx);
                if let Some(meta) = self.read_slot(addr)? {
                    out.push(meta);
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HostCache;
    use crate::dax::DaxDevice;

    fn make_hash(levels: usize, l1: usize) -> MultiLevelHash {
        let cfg = HashConfig::new(levels, l1).unwrap();
        let bytes = cfg.total_slots().unwrap() * SLOT_SIZE + 4096;
        let size = bytes.div_ceil(4096) * 4096;
        let dev = DaxDevice::with_alignment("hash-test", size, 4096).unwrap();
        let view = CxlView::new(dev, HostCache::with_capacity("host0", 4096));
        let h = MultiLevelHash::attach(view, 0, cfg).unwrap();
        h.format().unwrap();
        h
    }

    #[test]
    fn primes_basic() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(1));
        assert!(!is_prime(0));
        assert!(!is_prime(9));
        assert!(is_prime(199_999));
        assert_eq!(largest_prime_at_most(10), Some(7));
        assert_eq!(largest_prime_at_most(2), Some(2));
        assert_eq!(largest_prime_at_most(1), None);
        assert_eq!(largest_prime_at_most(200_000), Some(199_999));
    }

    #[test]
    fn paper_config_matches_reported_numbers() {
        // Section 3.7: slot counts across levels 1-10 range from 199,999 down
        // to 199,873, totalling 1,999,260 slots.
        let cfg = HashConfig::paper();
        let sizes = cfg.level_sizes().unwrap();
        assert_eq!(sizes.len(), 10);
        assert_eq!(sizes[0], 199_999);
        assert_eq!(*sizes.last().unwrap(), 199_873);
        assert_eq!(cfg.total_slots().unwrap(), 1_999_260);
        // Strictly decreasing primes.
        for w in sizes.windows(2) {
            assert!(w[0] > w[1]);
            assert!(is_prime(w[1]));
        }
    }

    #[test]
    fn config_rejects_degenerate() {
        assert!(HashConfig::new(0, 100).is_err());
        assert!(HashConfig::new(3, 1).is_err());
        assert!(HashConfig::new(10, 7).is_err()); // not enough primes below 7
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let h = make_hash(4, 101);
        h.insert("rma_window_0", 4096, 65536).unwrap();
        let meta = h.lookup("rma_window_0").unwrap().unwrap();
        assert_eq!(meta.offset, 4096);
        assert_eq!(meta.size, 65536);
        assert!(h.lookup("missing").unwrap().is_none());
        let removed = h.remove("rma_window_0").unwrap();
        assert_eq!(removed, meta);
        assert!(h.lookup("rma_window_0").unwrap().is_none());
        assert!(matches!(
            h.remove("rma_window_0"),
            Err(ShmError::ObjectNotFound(_))
        ));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let h = make_hash(4, 101);
        h.insert("obj", 0, 10).unwrap();
        assert!(matches!(
            h.insert("obj", 64, 20),
            Err(ShmError::ObjectExists(_))
        ));
    }

    #[test]
    fn name_validation() {
        let h = make_hash(2, 53);
        assert!(matches!(
            h.insert("", 0, 1),
            Err(ShmError::InvalidObjectName(_))
        ));
        let long = "x".repeat(MAX_NAME_LEN + 1);
        assert!(matches!(
            h.insert(&long, 0, 1),
            Err(ShmError::InvalidObjectName(_))
        ));
        let max = "y".repeat(MAX_NAME_LEN);
        h.insert(&max, 0, 1).unwrap();
        assert!(h.lookup(&max).unwrap().is_some());
    }

    #[test]
    fn collisions_overflow_to_lower_levels_until_full() {
        // 2 levels of 2 and 2 slots: at most 4 entries; inserting more distinct
        // names that collide must eventually return HashFull.
        let h = make_hash(2, 3);
        let mut inserted = 0usize;
        let mut full_seen = false;
        for i in 0..64 {
            match h.insert(&format!("name{i}"), i as u64 * 64, 64) {
                Ok(()) => inserted += 1,
                Err(ShmError::HashFull) => {
                    full_seen = true;
                    break;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(full_seen, "hash never filled up");
        assert!(inserted >= 2, "should fit at least a couple before filling");
        assert_eq!(h.count_used().unwrap(), inserted);
        // Everything inserted must still be findable.
        let found = h.iter_used().unwrap();
        assert_eq!(found.len(), inserted);
    }

    #[test]
    fn many_inserts_all_recoverable() {
        let h = make_hash(6, 257);
        let n = 150usize;
        for i in 0..n {
            h.insert(&format!("obj-{i}"), (i * 128) as u64, 128)
                .unwrap();
        }
        assert_eq!(h.count_used().unwrap(), n);
        for i in 0..n {
            let meta = h.lookup(&format!("obj-{i}")).unwrap().unwrap();
            assert_eq!(meta.offset, (i * 128) as u64);
        }
    }

    #[test]
    fn visible_across_hosts() {
        let cfg = HashConfig::small();
        let bytes = cfg.total_slots().unwrap() * SLOT_SIZE;
        let size = bytes.div_ceil(4096) * 4096;
        let dev = DaxDevice::with_alignment("hash-xhost", size, 4096).unwrap();
        let view_a = CxlView::new(dev.clone(), HostCache::with_capacity("hostA", 4096));
        let view_b = CxlView::new(dev, HostCache::with_capacity("hostB", 4096));
        let ha = MultiLevelHash::attach(view_a, 0, cfg).unwrap();
        let hb = MultiLevelHash::attach(view_b, 0, cfg).unwrap();
        ha.format().unwrap();
        ha.insert("window", 8192, 4096).unwrap();
        let meta = hb.lookup("window").unwrap().expect("visible on host B");
        assert_eq!(meta.offset, 8192);
        assert_eq!(meta.size, 4096);
    }
}
