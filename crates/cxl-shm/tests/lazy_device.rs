//! A simulated dax device is lazily backed: creating one faults in none of
//! its pages, so a large pool costs the host only what a run touches — as a
//! real dax mapping does.
//!
//! This file holds one test so it runs in a process of its own, where no
//! test running beside it can move the resident set.

use cxl_shm::DaxDevice;

/// `VmRSS` of this process in KiB, if the platform reports it.
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn a_one_gib_device_faults_in_only_what_it_touches() {
    let Some(before) = rss_kib() else {
        eprintln!("no /proc/self/status: skipped");
        return;
    };
    let dev = DaxDevice::new("lazy", 1 << 30).unwrap();
    let seg = dev.segment();
    let last = dev.size() - 8;
    seg.write_u64(last, 0x0123_4567_89AB_CDEF).unwrap();
    assert_eq!(seg.read_u64(last).unwrap(), 0x0123_4567_89AB_CDEF);
    assert_eq!(seg.read_u64(0).unwrap(), 0);
    let grown = rss_kib().expect("VmRSS was readable") - before;
    assert!(
        grown < 32 * 1024,
        "creating the device grew VmRSS by {grown} KiB"
    );
}
