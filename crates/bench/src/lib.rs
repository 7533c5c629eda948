//! # cmpi-bench — benchmark harness for every table and figure of the paper
//!
//! Two kinds of targets live here:
//!
//! * **Figure/table binaries** (`src/bin/*.rs`) — one per table or figure of
//!   the paper's evaluation. Each regenerates the corresponding rows/series
//!   (in simulated virtual time) and prints them as an aligned text table plus
//!   a CSV block, so results can be diffed against the paper's reported
//!   numbers. Run them with `cargo run -p cmpi-bench --release --bin <name>`.
//! * **Criterion micro-benchmarks** (`benches/*.rs`) — wall-clock benchmarks of
//!   the underlying mechanisms (cost models, coherence operations, SPSC queue,
//!   arena, transports), exercised by `cargo bench --workspace`.
//!
//! Sweeps default to a reduced grid so a full run finishes in minutes; set
//! `CMPI_FULL=1` for the paper's complete 1 B – 4 MB × {2,4,8,16,32}-process
//! grid.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use cmpi_core::{ConnMode, UniverseConfig};
use cmpi_fabric::cost::TcpNic;

/// Message sizes to sweep (bytes). Reduced grid unless `CMPI_FULL=1`.
pub fn sweep_sizes() -> Vec<usize> {
    if full_mode() {
        cmpi_omb::osu_message_sizes()
    } else {
        vec![1, 16, 256, 4096, 16384, 65536, 262144, 1048576]
    }
}

/// Process counts to sweep. Reduced grid unless `CMPI_FULL=1`.
pub fn sweep_processes() -> Vec<usize> {
    if full_mode() {
        cmpi_omb::process_counts()
    } else {
        vec![2, 8, 16]
    }
}

/// Process counts for the Figure 9 cell-size sweep (the paper uses 16 and 32).
pub fn fig9_processes() -> Vec<usize> {
    if full_mode() {
        vec![16, 32]
    } else {
        vec![8, 16]
    }
}

/// Whether the full paper-scale sweep was requested.
pub fn full_mode() -> bool {
    std::env::var("CMPI_FULL").is_ok_and(|v| v == "1")
}

/// Panel label of the CXL entry of [`transports`].
pub const CXL_LABEL: &str = "CXL-SHM";

/// cMPI as the paper built it: `UniverseConfig::cxl` pinned to
/// `ConnMode::Eager`, the queue matrix of SPSC cell rings of Section 3.3.
/// Everything that reproduces a two-sided number of the paper (Figures 7, 8
/// and 9, the two-sided headline ratios) runs on this oracle, so the library's
/// default path (lazy connections, a stamped stream per promoted pair) can
/// move without the reproduction moving with it.
pub fn paper_cxl(ranks: usize) -> UniverseConfig {
    UniverseConfig::cxl(ranks).with_conn_mode(ConnMode::Eager)
}

/// The configuration of panel `label` of a two-sided figure at `ranks` ranks:
/// the entry of [`transports`], with the CXL panel on [`paper_cxl`].
pub fn paper_panel(label: &str, ranks: usize) -> UniverseConfig {
    if label == CXL_LABEL {
        return paper_cxl(ranks);
    }
    let found = transports(ranks).into_iter().find(|(l, _)| *l == label);
    found.expect("label comes from `transports`").1
}

/// The three transports compared in Figures 5–8, in plotting order.
pub fn transports(ranks: usize) -> Vec<(&'static str, UniverseConfig)> {
    vec![
        (
            "TCP over Ethernet",
            UniverseConfig::tcp(ranks, TcpNic::StandardEthernet),
        ),
        (CXL_LABEL, UniverseConfig::cxl(ranks)),
        (
            "TCP over Mellanox (CX-6 Dx)",
            UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx),
        ),
    ]
}

/// Human-readable size label (1K, 64K, 1M...).
pub fn size_label(bytes: usize) -> String {
    if bytes >= 1024 * 1024 {
        format!("{}M", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}")
    }
}

/// Print one figure panel (one transport) as an aligned table followed by CSV.
///
/// `rows` maps a message size to the values for each process count, in the
/// same order as `procs`.
pub fn print_panel(title: &str, metric: &str, procs: &[usize], rows: &[(usize, Vec<f64>)]) {
    println!("--- {title} ({metric}) ---");
    print!("{:>10}", "size");
    for p in procs {
        print!("{:>16}", format!("{p} procs"));
    }
    println!();
    for (size, values) in rows {
        print!("{:>10}", size_label(*size));
        for v in values {
            print!("{:>16.2}", v);
        }
        println!();
    }
    println!();
    println!("csv,transport,size_bytes,{}", {
        procs
            .iter()
            .map(|p| format!("p{p}"))
            .collect::<Vec<_>>()
            .join(",")
    });
    for (size, values) in rows {
        println!(
            "csv,{title},{size},{}",
            values
                .iter()
                .map(|v| format!("{v:.3}"))
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_nonempty_and_sorted() {
        let sizes = sweep_sizes();
        assert!(!sizes.is_empty());
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        let procs = sweep_processes();
        assert!(procs.contains(&16));
        assert_eq!(fig9_processes().len(), 2);
    }

    #[test]
    fn transports_cover_three_cases() {
        let t = transports(4);
        assert_eq!(t.len(), 3);
        assert_eq!(t[1].0, "CXL-SHM");
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(1), "1");
        assert_eq!(size_label(4096), "4K");
        assert_eq!(size_label(4 * 1024 * 1024), "4M");
    }
}
