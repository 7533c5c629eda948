//! k-means / MKKM-style alternating iteration over cMPI: nearest-centroid
//! assignment, `allreduce` of partial centroid sums, `bcast` of the
//! canonical centroids, and an `alltoallv` reshuffle of points onto their
//! clusters' owner ranks every iteration — the alternating
//! reduce/redistribute cadence of the paper's multiple-kernel-k-means
//! workload. Point conservation is asserted inside the kernel.
//!
//! Run with: `cargo run --release --example kmeans_shuffle`
//! (set `CMPI_RANKS` to change the rank count; default 4)

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::UniverseConfig;
use cmpi::omb::kmeans_proxy;

fn ranks_from_env(default: usize) -> usize {
    std::env::var("CMPI_RANKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ranks = ranks_from_env(4);
    let (points_per_rank, clusters, iterations) = (512, 8, 4);
    for (label, config) in [
        ("CXL-SHM", UniverseConfig::cxl(ranks)),
        (
            "TCP-Mellanox",
            UniverseConfig::tcp(ranks, TcpNic::MellanoxCx6Dx),
        ),
    ] {
        let point = kmeans_proxy(config, points_per_rank, clusters, iterations)?;
        println!(
            "{label}: {iterations} alternating iterations over {} points × {} ranks: \
             {:.1} µs/iter virtual, {} bytes reshuffled by {}, count exchange ran {}",
            points_per_rank,
            point.processes,
            point.time_us,
            point.shuffled_bytes,
            point.shuffle_algo,
            point.alltoall_algo,
        );
    }
    Ok(())
}
