//! Shuffle-workload kernels: the alltoall collective sweep and the two
//! scenario proxies that exercise it end to end.
//!
//! The alltoall family earns its keep in workloads whose communication is a
//! personalized all-to-all exchange. Two canonical shapes are measured here:
//!
//! * **Distributed sample sort** — local sort, splitter selection by regular
//!   sampling + allgather, then one irregular key shuffle (`alltoallv`) and a
//!   final local sort. The count exchange preceding the shuffle is a regular
//!   `alltoall` of one word per peer — exactly the small-message corner the
//!   Bruck algorithm targets.
//! * **k-means / MKKM-style alternating iteration** — assign, `allreduce` of
//!   partial centroid sums, `bcast` of the canonical centroids, and a
//!   periodic `alltoallv` reshuffle of points onto their clusters' owner
//!   ranks. The multiple-kernel-k-means evaluation in the paper alternates
//!   reductions and redistributions in this shape.
//!
//! As everywhere in this crate, timings are **virtual**: read off the ranks'
//! simulated clocks, not the host's.

use cmpi_core::{Comm, ReduceOp, Universe, UniverseConfig};

use crate::kernels::{iterations_for, BenchPoint, WARMUP};
use crate::Result;

/// One measured point of a shuffle workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ShufflePoint {
    /// Number of MPI processes participating.
    pub processes: usize,
    /// Problem size per rank (keys for sample sort, points for k-means).
    pub elems_per_rank: usize,
    /// Bytes delivered by the irregular shuffle, summed across ranks (for
    /// k-means: across all iterations too).
    pub shuffled_bytes: u64,
    /// Average virtual time per rank, µs — the whole phase for sample sort,
    /// per iteration for k-means.
    pub time_us: f64,
    /// Algorithm label of the regular alltoall count exchange inside the
    /// workload (the size-adaptive selection under test).
    pub alltoall_algo: &'static str,
    /// Algorithm label of the irregular shuffle itself, as rank 0 ran it
    /// last: `alltoallv/shm` on a shared window, `alltoallv/pairwise`
    /// without one.
    pub shuffle_algo: &'static str,
}

/// SplitMix64: cheap deterministic per-rank data without an RNG dependency.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform f64 in `[0, 1)` from the hash of `x`.
fn unit_f64(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Complete-exchange latency (`osu_alltoall`): every rank exchanges a
/// `size`-byte block with every peer each iteration.
///
/// Returns the average per-iteration latency across ranks (µs) and the
/// aggregate delivered bandwidth (`n² × size` bytes per iteration, MB/s).
pub fn alltoall_latency(config: UniverseConfig, size: usize) -> Result<BenchPoint> {
    let processes = config.ranks;
    let iters = iterations_for(size * processes);
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        comm.set_concurrency_hint((n / 2).max(1));
        let send: Vec<u8> = (0..n * size).map(|i| (i % 251) as u8).collect();
        let mut recv = vec![0u8; n * size];
        for _ in 0..WARMUP {
            comm.alltoall(&send, &mut recv)?;
        }
        comm.barrier()?;
        let start = comm.clock_ns();
        for _ in 0..iters {
            comm.alltoall(&send, &mut recv)?;
        }
        let elapsed = comm.clock_ns() - start;
        Ok(elapsed / iters as f64 / 1000.0)
    })?;
    let latencies: Vec<f64> = results
        .iter()
        .map(|(l, _)| *l)
        .filter(|l| l.is_finite())
        .collect();
    let avg = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let total_bytes = (processes * processes * size) as f64;
    Ok(BenchPoint {
        size,
        processes,
        latency_us: avg,
        bandwidth_mbps: if avg > 0.0 { total_bytes / avg } else { 0.0 },
    })
}

/// Distributed sample-sort proxy: `keys_per_rank` pseudo-random u64 keys per
/// rank end up globally sorted across ranks. The kernel asserts the result —
/// key conservation via `allreduce` and cross-rank bucket ordering via an
/// `allgather` of per-rank extrema — so a passing run certifies the shuffle
/// was byte-correct, whichever alltoall algorithm the tuning selected.
pub fn sample_sort_proxy(config: UniverseConfig, keys_per_rank: usize) -> Result<ShufflePoint> {
    assert!(
        keys_per_rank > 0,
        "sample sort needs at least one key per rank"
    );
    let processes = config.ranks;
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        let me = comm.rank();
        comm.set_concurrency_hint((n / 2).max(1));
        let mut keys: Vec<u64> = (0..keys_per_rank)
            .map(|i| splitmix64(((me as u64) << 32) | i as u64))
            .collect();
        comm.barrier()?;
        let start = comm.clock_ns();
        // Phase 1: local sort, then n-1 evenly spaced splitter candidates.
        keys.sort_unstable();
        // Phase 2: allgather the candidates; every rank derives the same
        // global splitters from the sorted candidate pool.
        let splitters: Vec<u64> = if n > 1 {
            let samples: Vec<u64> = (1..n)
                .map(|j| keys[(j * keys_per_rank / n).min(keys_per_rank - 1)])
                .collect();
            let mut pool = vec![0u64; n * samples.len()];
            comm.allgather_into(&samples, &mut pool)?;
            pool.sort_unstable();
            (1..n).map(|j| pool[j * pool.len() / n]).collect()
        } else {
            Vec::new()
        };
        // Phase 3: bucket by destination — keys are sorted, so counts fall
        // out of a single forward scan.
        let mut send_counts = vec![0usize; n];
        let mut d = 0;
        for &k in &keys {
            while d < n - 1 && k >= splitters[d] {
                d += 1;
            }
            send_counts[d] += 1;
        }
        // Phase 4: one-word count exchange (the regular alltoall under
        // test), then the irregular key shuffle.
        let send_c: Vec<u64> = send_counts.iter().map(|&c| c as u64).collect();
        let mut recv_c = vec![0u64; n];
        comm.alltoall(&send_c, &mut recv_c)?;
        let algo = comm.last_coll_algorithm();
        let recv_counts: Vec<usize> = recv_c.iter().map(|&c| c as usize).collect();
        let mut mine = comm.alltoallv(&keys, &send_counts, &recv_counts)?;
        let shuffle_algo = comm.last_coll_algorithm();
        // Phase 5: final local sort.
        mine.sort_unstable();
        let elapsed = comm.clock_ns() - start;
        // Certify: no key lost, and bucket ranges ordered across ranks.
        let mut total = [mine.len() as f64];
        comm.allreduce(&mut total, ReduceOp::Sum)?;
        assert_eq!(
            total[0] as usize,
            n * keys_per_rank,
            "sample sort lost keys in the shuffle"
        );
        let bounds = [
            mine.first().copied().unwrap_or(u64::MAX),
            mine.last().copied().unwrap_or(0),
        ];
        let mut all_bounds = vec![0u64; 2 * n];
        comm.allgather_into(&bounds, &mut all_bounds)?;
        let mut hi_so_far = 0u64;
        for r in 0..n {
            let (lo, hi) = (all_bounds[2 * r], all_bounds[2 * r + 1]);
            if lo <= hi {
                // Non-empty bucket: must sit entirely above its predecessors.
                assert!(lo >= hi_so_far, "rank {r}'s bucket overlaps a lower rank's");
                hi_so_far = hi;
            }
        }
        Ok((
            elapsed / 1000.0,
            (mine.len() * 8) as u64,
            algo,
            shuffle_algo,
        ))
    })?;
    let time_us = results.iter().map(|(r, _)| r.0).sum::<f64>() / results.len().max(1) as f64;
    let shuffled_bytes = results.iter().map(|(r, _)| r.1).sum();
    let (alltoall_algo, shuffle_algo) = results.first().map_or(("", ""), |(r, _)| (r.2, r.3));
    Ok(ShufflePoint {
        processes,
        elems_per_rank: keys_per_rank,
        shuffled_bytes,
        time_us,
        alltoall_algo,
        shuffle_algo,
    })
}

/// Dimensionality of the synthetic k-means points.
const KMEANS_DIMS: usize = 8;

/// Nearest-centroid index under squared Euclidean distance.
fn nearest(point: &[f64], centroids: &[f64]) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, cent) in centroids.chunks(point.len()).enumerate() {
        let d: f64 = point.iter().zip(cent).map(|(a, b)| (a - b) * (a - b)).sum();
        if d < best_d {
            best_d = d;
            best = c;
        }
    }
    best
}

/// k-means / MKKM-style alternating-iteration proxy: each of `iters`
/// iterations assigns `points_per_rank` 8-dimensional points to the nearest
/// of `clusters` centroids, `allreduce`s the partial centroid sums and
/// member counts, `bcast`s the canonical centroids from rank 0, and finally
/// reshuffles every point to its cluster's owner rank (`cluster % n`) with
/// an `alltoallv` — the alternating reduce/redistribute cadence of the
/// paper's multiple-kernel-k-means workload. Point conservation is asserted
/// at the end.
pub fn kmeans_proxy(
    config: UniverseConfig,
    points_per_rank: usize,
    clusters: usize,
    iters: usize,
) -> Result<ShufflePoint> {
    let processes = config.ranks;
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        let me = comm.rank();
        let clusters = clusters.max(1);
        comm.set_concurrency_hint((n / 2).max(1));
        let mut points: Vec<f64> = (0..points_per_rank * KMEANS_DIMS)
            .map(|i| unit_f64(((me as u64) << 32) | i as u64))
            .collect();
        // Rank 0 seeds the centroids; everyone receives the same start.
        let mut centroids = vec![0.0f64; clusters * KMEANS_DIMS];
        if me == 0 {
            for (i, c) in centroids.iter_mut().enumerate() {
                *c = unit_f64(0xC0FF_EE00 ^ i as u64);
            }
        }
        comm.barrier()?;
        let start = comm.clock_ns();
        comm.bcast_into(0, &mut centroids)?;
        let mut shuffled = 0u64;
        let (mut algo, mut shuffle_algo) = ("", "");
        for _ in 0..iters {
            // Assignment + partial sums: per-cluster coordinate sums
            // followed by per-cluster member counts, reduced in one call.
            let mut sums = vec![0.0f64; clusters * (KMEANS_DIMS + 1)];
            for p in points.chunks(KMEANS_DIMS) {
                let a = nearest(p, &centroids);
                for (d, &v) in p.iter().enumerate() {
                    sums[a * KMEANS_DIMS + d] += v;
                }
                sums[clusters * KMEANS_DIMS + a] += 1.0;
            }
            comm.allreduce(&mut sums, ReduceOp::Sum)?;
            for c in 0..clusters {
                let cnt = sums[clusters * KMEANS_DIMS + c];
                if cnt > 0.0 {
                    for d in 0..KMEANS_DIMS {
                        centroids[c * KMEANS_DIMS + d] = sums[c * KMEANS_DIMS + d] / cnt;
                    }
                }
            }
            // Alternating step: rank 0's view is canonical.
            comm.bcast_into(0, &mut centroids)?;
            // Redistribute: each point migrates to its cluster's owner.
            let dest: Vec<usize> = points
                .chunks(KMEANS_DIMS)
                .map(|p| nearest(p, &centroids) % n)
                .collect();
            let mut send_counts = vec![0usize; n];
            for &d in &dest {
                send_counts[d] += KMEANS_DIMS;
            }
            let mut send = Vec::with_capacity(points.len());
            for r in 0..n {
                for (p, &d) in points.chunks(KMEANS_DIMS).zip(&dest) {
                    if d == r {
                        send.extend_from_slice(p);
                    }
                }
            }
            let send_c: Vec<u64> = send_counts.iter().map(|&c| c as u64).collect();
            let mut recv_c = vec![0u64; n];
            comm.alltoall(&send_c, &mut recv_c)?;
            algo = comm.last_coll_algorithm();
            let recv_counts: Vec<usize> = recv_c.iter().map(|&c| c as usize).collect();
            points = comm.alltoallv(&send, &send_counts, &recv_counts)?;
            shuffle_algo = comm.last_coll_algorithm();
            shuffled += (points.len() * 8) as u64;
        }
        let elapsed = comm.clock_ns() - start;
        // Certify: every point still lives on exactly one rank.
        let mut total = [(points.len() / KMEANS_DIMS) as f64];
        comm.allreduce(&mut total, ReduceOp::Sum)?;
        assert_eq!(
            total[0] as usize,
            n * points_per_rank,
            "k-means reshuffle lost points"
        );
        Ok((
            elapsed / 1000.0 / iters.max(1) as f64,
            shuffled,
            algo,
            shuffle_algo,
        ))
    })?;
    let time_us = results.iter().map(|(r, _)| r.0).sum::<f64>() / results.len().max(1) as f64;
    let shuffled_bytes = results.iter().map(|(r, _)| r.1).sum();
    let (alltoall_algo, shuffle_algo) = results.first().map_or(("", ""), |(r, _)| (r.2, r.3));
    Ok(ShufflePoint {
        processes,
        elems_per_rank: points_per_rank,
        shuffled_bytes,
        time_us,
        alltoall_algo,
        shuffle_algo,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_fabric::cost::TcpNic;

    fn configs(n: usize) -> Vec<UniverseConfig> {
        vec![
            UniverseConfig::cxl(n),
            UniverseConfig::tcp(n, TcpNic::MellanoxCx6Dx),
        ]
    }

    #[test]
    fn alltoall_latency_is_positive_and_size_adaptive() {
        for config in configs(4) {
            let small = alltoall_latency(config.clone(), 64).unwrap();
            assert!(small.latency_us.is_finite() && small.latency_us > 0.0);
            assert_eq!(small.processes, 4);
            let large = alltoall_latency(config, 16 * 1024).unwrap();
            assert!(large.bandwidth_mbps > 0.0);
            // More bytes must cost more virtual time.
            assert!(large.latency_us > small.latency_us);
        }
    }

    #[test]
    fn sample_sort_shuffles_and_sorts() {
        for n in [4usize, 5] {
            for config in configs(n) {
                let point = sample_sort_proxy(config, 256).unwrap();
                assert_eq!(point.processes, n);
                assert_eq!(point.elems_per_rank, 256);
                // All n×256 keys arrive somewhere: 8 bytes each.
                assert_eq!(point.shuffled_bytes, (n * 256 * 8) as u64);
                assert!(point.time_us > 0.0);
                // The one-word count exchange sits in Bruck territory.
                assert!(
                    point.alltoall_algo.starts_with("alltoall/"),
                    "unexpected algo {:?}",
                    point.alltoall_algo
                );
                assert!(point.shuffle_algo.starts_with("alltoallv/"));
            }
        }
    }

    #[test]
    fn kmeans_iterates_and_conserves_points() {
        for config in configs(4) {
            let point = kmeans_proxy(config, 96, 5, 3).unwrap();
            assert_eq!(point.processes, 4);
            assert!(point.time_us > 0.0);
            assert!(point.shuffled_bytes > 0);
            assert!(point.alltoall_algo.starts_with("alltoall/"));
        }
    }
}
