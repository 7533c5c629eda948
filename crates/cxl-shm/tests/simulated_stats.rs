//! Pins every statistic the simulated cache and the coherence counters report
//! for one scripted sequence of accesses.
//!
//! The simulation's statistics are what the cost models in `cmpi-fabric`
//! turn into virtual time, so a change that only makes the simulator faster
//! must leave every one of them identical. The sequence runs on small caches
//! so it reaches every path: cached writes and reads, `write_flush` and
//! `read_coherent` over ranges with and without resident lines, both
//! non-temporal stores, non-temporal loads, and enough capacity pressure to
//! evict dirty and clean lines.

use cxl_shm::coherence::CoherenceSnapshot;
use cxl_shm::{CacheStats, CxlView, DaxDevice, HostCache};

/// A byte pattern that differs per call site and per byte.
fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| seed.wrapping_mul(37).wrapping_add((i * 13 % 251) as u8))
        .collect()
}

/// FNV-1a over the whole device, read around both caches.
fn device_digest(view: &CxlView) -> u64 {
    let mut bytes = vec![0u8; view.len()];
    view.nt_load(0, &mut bytes).unwrap();
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01B3)
    })
}

#[test]
fn a_scripted_sequence_keeps_every_simulated_statistic() {
    const KIB: usize = 1024;
    let dev = DaxDevice::with_alignment("stats-pin", 64 * KIB, 4 * KIB).unwrap();
    let a = CxlView::new(dev.clone(), HostCache::with_capacity("hostA", 24));
    let b = CxlView::new(dev, HostCache::with_capacity("hostB", 16));
    let mut buf = vec![0u8; 8 * KIB];

    // Cached writes, partial and whole lines, left dirty.
    a.write(0, &pattern(1, 100)).unwrap();
    a.write(200, &pattern(2, 3 * 64)).unwrap();
    a.write(512, &pattern(3, 4 * 64)).unwrap();
    // Publishes over ranges with no resident line: whole lines, then partial.
    a.write_flush(1024, &pattern(4, 4 * 64)).unwrap();
    a.write_flush(2048 + 8, &pattern(5, 300)).unwrap();
    // A publish over lines the cached writes left dirty.
    a.write_flush(512, &pattern(6, 2 * 64)).unwrap();
    // Coherent reads: over dirty resident lines, and on the other host.
    a.read_coherent(0, &mut buf[..256]).unwrap();
    b.read_coherent(1024, &mut buf[..256]).unwrap();
    b.read(1024 + 64, &mut buf[..64]).unwrap();
    b.read_coherent(2048, &mut buf[..512]).unwrap();
    // Non-temporal stores over resident lines and over lines none holds.
    a.nt_store(128, &pattern(7, 256)).unwrap();
    a.nt_store(8 * KIB, &pattern(8, 4 * KIB)).unwrap();
    b.nt_store(1024 + 3, &pattern(9, 70)).unwrap();
    a.nt_store_lines(4 * KIB, &pattern(10, 8 * 64)).unwrap();
    b.nt_store_lines(2048, &pattern(11, 2 * 64)).unwrap();
    a.nt_store_u64(16, 0xDEAD_BEEF).unwrap();
    // Capacity pressure: more lines than either cache holds.
    a.write(16 * KIB, &pattern(12, 40 * 64)).unwrap();
    a.write_flush(24 * KIB, &pattern(13, 10 * 64)).unwrap();
    a.read_coherent(32 * KIB + 17, &mut buf[..30 * 64]).unwrap();
    b.write(40 * KIB, &pattern(14, 20 * 64 + 5)).unwrap();
    b.read_coherent(16 * KIB, &mut buf[..3 * KIB]).unwrap();
    b.write_flush(48 * KIB, &pattern(15, 12 * 64)).unwrap();
    // Re-reads that hit, then loads and flushes of what is left.
    a.read(32 * KIB + 17, &mut buf[..5 * 64]).unwrap();
    a.nt_load(4 * KIB, &mut buf[..8 * 64]).unwrap();
    a.flush(16 * KIB, 8 * KIB, cxl_shm::FlushKind::Clflush)
        .unwrap();
    b.flush(0, 64 * KIB, cxl_shm::FlushKind::Clflushopt)
        .unwrap();

    assert_eq!(
        (a.cache().stats(), a.cache().resident_lines()),
        (
            CacheStats {
                read_hits: 5,
                read_misses: 36,
                write_hits: 2,
                write_misses: 69,
                evictions: 43,
                flush_writebacks: 24,
                flush_invalidations: 24,
                nt_store_bytes: 4872,
                nt_load_bytes: 512,
            },
            24
        )
    );
    assert_eq!(
        (b.cache().stats(), b.cache().resident_lines()),
        (
            CacheStats {
                read_hits: 1,
                read_misses: 60,
                write_hits: 0,
                write_misses: 33,
                evictions: 21,
                flush_writebacks: 12,
                flush_invalidations: 16,
                nt_store_bytes: 198,
                nt_load_bytes: 0,
            },
            0
        )
    );
    assert_eq!(
        a.counters(),
        CoherenceSnapshot {
            bytes_written: 4432,
            bytes_read: 2496,
            nt_bytes_written: 4872,
            nt_bytes_read: 512,
            clflush_lines: 128,
            clflushopt_lines: 56,
            fences: 6,
            uncacheable_accesses: 0,
        }
    );
    assert_eq!(
        b.counters(),
        CoherenceSnapshot {
            bytes_written: 2053,
            bytes_read: 3904,
            nt_bytes_written: 198,
            nt_bytes_read: 0,
            clflush_lines: 0,
            clflushopt_lines: 1096,
            fences: 4,
            uncacheable_accesses: 0,
        }
    );
    assert_eq!(device_digest(&a), 0x31af_77d5_27b6_9e2a);
}
