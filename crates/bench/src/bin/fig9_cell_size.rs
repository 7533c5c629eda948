//! Figure 9: bandwidth of two-sided communication over CXL SHM with various
//! message-cell sizes (16/32/64/128 KB) and 16/32 processes (Section 4.3).
//!
//! Runs on [`cmpi_bench::paper_cxl`] (`ConnMode::Eager`), the paper's chunked-cell
//! protocol: the cell-size effect the figure studies only exists where every
//! message is chunked through cells (on the lazy default's streams the cell
//! size only sets the segment size).

use cmpi_bench::{fig9_processes, paper_cxl, print_panel, sweep_sizes};
use cmpi_core::TransportConfig;
use cmpi_omb::two_sided_bandwidth;

fn main() {
    let sizes = sweep_sizes();
    let cell_sizes = [16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024];
    let procs = fig9_processes();
    println!("Figure 9: Two-sided CXL-SHM bandwidth vs message-cell size (aggregate MB/s)\n");
    for cell in cell_sizes {
        let mut rows = Vec::new();
        for &size in &sizes {
            let mut values = Vec::new();
            for &p in &procs {
                let mut config = paper_cxl(p);
                if let TransportConfig::CxlShm(c) = &mut config.transport {
                    c.cell_size = cell;
                }
                let point = two_sided_bandwidth(config, size).expect("benchmark run");
                values.push(point.bandwidth_mbps);
            }
            rows.push((size, values));
        }
        print_panel(
            &format!("cell size: {}KB", cell / 1024),
            "Bandwidth (MB/s)",
            &procs,
            &rows,
        );
    }
}
