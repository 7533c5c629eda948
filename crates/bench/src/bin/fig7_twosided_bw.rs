//! Figure 7: bandwidth of two-sided MPI communication (send/recv, 64 KB
//! message cells), three transports × {2..32} processes × 1 B–4 MB messages.
//!
//! The CXL-SHM panel runs on [`cmpi_bench::paper_panel`]'s `ConnMode::Eager` oracle: the
//! paper's protocol chunks every message through 64 KB cells of the full
//! queue matrix, and that is the curve Figure 7 reports. A fourth panel shows
//! what this repository's default does instead — lazy connections, every
//! message of a promoted pair through its stamped stream.

use cmpi_bench::{paper_panel, print_panel, sweep_processes, sweep_sizes, transports};
use cmpi_core::UniverseConfig;
use cmpi_omb::two_sided_bandwidth;

fn panel(label: &str, config_for: impl Fn(usize) -> UniverseConfig) {
    let procs = sweep_processes();
    let mut rows = Vec::new();
    for size in sweep_sizes() {
        let mut values = Vec::new();
        for &p in &procs {
            let point = two_sided_bandwidth(config_for(p), size).expect("benchmark run");
            values.push(point.bandwidth_mbps);
        }
        rows.push((size, values));
    }
    print_panel(label, "Bandwidth (MB/s)", &procs, &rows);
}

fn main() {
    println!("Figure 7: Bandwidth of two-sided MPI communication (aggregate MB/s)\n");
    for (label, _) in transports(2) {
        panel(label, |p| paper_panel(label, p));
    }
    panel(
        "CXL-SHM, lazy + streams (not in the paper)",
        UniverseConfig::cxl,
    );
}
