//! Distributed sample sort over cMPI: local sort → splitter allgather →
//! one-word alltoall count exchange → alltoallv key shuffle → final local
//! sort. The kernel asserts the global sort (key conservation + cross-rank
//! bucket ordering), so a clean exit certifies the shuffle was byte-correct
//! whichever alltoall algorithm the size-adaptive selection picked.
//!
//! Run with: `cargo run --release --example sample_sort`
//! (set `CMPI_RANKS` to change the rank count; default 4)

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::UniverseConfig;
use cmpi::omb::sample_sort_proxy;

fn ranks_from_env(default: usize) -> usize {
    std::env::var("CMPI_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ranks = ranks_from_env(4);
    let keys_per_rank = 4096;
    for (label, config) in [
        ("CXL-SHM", UniverseConfig::cxl(ranks)),
        (
            "TCP-Mellanox",
            UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx),
        ),
    ] {
        let point = sample_sort_proxy(config, keys_per_rank)?;
        println!(
            "{label}: sorted {} keys across {} ranks in {:.1} µs virtual \
             ({} bytes shuffled by {}, count exchange ran {})",
            ranks * keys_per_rank,
            point.processes,
            point.time_us,
            point.shuffled_bytes,
            point.shuffle_algo,
            point.alltoall_algo,
        );
    }
    Ok(())
}
