//! Figure 8: latency of two-sided MPI communication (ping-pong), three
//! transports × {2..32} processes × 1 B–4 MB messages.
//!
//! The CXL-SHM panel runs on [`cmpi_bench::paper_cxl`] (`ConnMode::Eager`), the paper's
//! message-cell protocol, and that is the curve Figure 8 reports. One extra
//! line prints what this repository's default does instead at 8 B — lazy
//! connections, the message in one stamped flag line of the pair's stream —
//! so the distance between the reproduction and the library is on the page.

use cmpi_bench::{paper_panel, print_panel, sweep_processes, sweep_sizes, transports};
use cmpi_core::UniverseConfig;
use cmpi_omb::two_sided_latency;

fn main() {
    let sizes = sweep_sizes();
    let procs = sweep_processes();
    println!("Figure 8: Latency of two-sided MPI communication (us)\n");
    for (label, _) in transports(2) {
        let mut rows = Vec::new();
        for &size in &sizes {
            let mut values = Vec::new();
            for &p in &procs {
                let point = two_sided_latency(paper_panel(label, p), size).expect("benchmark run");
                values.push(point.latency_us);
            }
            rows.push((size, values));
        }
        print_panel(label, "Latency (us)", &procs, &rows);
    }
    let lazy = two_sided_latency(UniverseConfig::cxl(2), 8).expect("benchmark run");
    println!(
        "beyond the paper: CXL-SHM library default (lazy, streams), 8 B, 2 procs: {:.3} us",
        lazy.latency_us
    );
}
