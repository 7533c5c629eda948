//! The measurement kernels (latency and bandwidth, two-sided and one-sided).
//!
//! Layout of every kernel: the ranks are split in halves as in the paper's
//! evaluation — ranks `0..n/2` are origins/senders on host 0, ranks `n/2..n`
//! are targets/receivers on host 1 — and rank `i` pairs with rank `i + n/2`.
//! Measurements are taken on the origin side from the per-rank virtual clocks
//! after a handful of warm-up iterations, and aggregated across pairs.

use cmpi_core::{Comm, ProgressMode, Rank, ReduceOp, TransportConfig, Universe, UniverseConfig};

use crate::Result;

/// Ensure the CXL device reserves enough headroom for the RMA windows a
/// one-sided kernel will allocate.
fn reserve_window_headroom(config: &mut UniverseConfig, size: usize) {
    if let TransportConfig::CxlShm(ref mut c) = config.transport {
        let needed = config.ranks * (size.max(8) + 4096) + 4 * 1024 * 1024;
        if c.window_headroom < needed {
            c.window_headroom = needed;
        }
    }
}

/// One measured data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchPoint {
    /// Message size in bytes.
    pub size: usize,
    /// Number of MPI processes participating.
    pub processes: usize,
    /// Average one-way latency per message, microseconds (latency kernels).
    pub latency_us: f64,
    /// Aggregate bandwidth across all pairs, MB/s (bandwidth kernels).
    pub bandwidth_mbps: f64,
}

/// Iteration count scaled down for large messages so the functional data
/// movement stays affordable.
pub fn iterations_for(size: usize) -> usize {
    match size {
        0..=4096 => 40,
        4097..=65536 => 20,
        65537..=1048576 => 8,
        _ => 4,
    }
}

/// Number of messages kept in flight per bandwidth iteration (the OSU window).
pub const BW_WINDOW: usize = 4;
/// Warm-up iterations excluded from measurement.
pub const WARMUP: usize = 3;

/// Pairing for the two-host pairwise kernels: the `n/2` origins each pair
/// with the rank `n.div_ceil(2)` above them. With an odd world the middle
/// rank sits out (`None`) — the old `rank - n/2` arithmetic aliased it onto
/// another pair's target, leaving one rank waiting on a partner that never
/// talks back.
fn pair_of(rank: Rank, n: usize) -> Option<(bool, Rank)> {
    let pairs = n / 2;
    let split = n.div_ceil(2);
    if rank < pairs {
        Some((true, rank + split))
    } else if rank >= split {
        Some((false, rank - split))
    } else {
        None
    }
}

/// Two-sided ping-pong latency (OSU `osu_latency`, multi-pair).
///
/// Returns the average one-way latency over all pairs, µs.
pub fn two_sided_latency(config: UniverseConfig, size: usize) -> Result<BenchPoint> {
    let processes = config.ranks;
    let iters = iterations_for(size);
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        comm.set_concurrency_hint((n / 2).max(1));
        let role = pair_of(comm.rank(), n);
        let payload = vec![0xA5u8; size];
        let mut buf = vec![0u8; size];
        // Warm-up.
        for _ in 0..WARMUP {
            match role {
                Some((true, peer)) => {
                    comm.send(peer, 1, &payload)?;
                    comm.recv(Some(peer), Some(1), &mut buf)?;
                }
                Some((false, peer)) => {
                    comm.recv(Some(peer), Some(1), &mut buf)?;
                    comm.send(peer, 1, &payload)?;
                }
                None => {}
            }
        }
        comm.barrier()?;
        let start = comm.clock_ns();
        for _ in 0..iters {
            match role {
                Some((true, peer)) => {
                    comm.send(peer, 1, &payload)?;
                    comm.recv(Some(peer), Some(1), &mut buf)?;
                }
                Some((false, peer)) => {
                    comm.recv(Some(peer), Some(1), &mut buf)?;
                    comm.send(peer, 1, &payload)?;
                }
                None => {}
            }
        }
        let elapsed = comm.clock_ns() - start;
        // One-way latency: round trips / 2.
        Ok(if matches!(role, Some((true, _))) {
            elapsed / iters as f64 / 2.0 / 1000.0
        } else {
            f64::NAN
        })
    })?;
    let lats: Vec<f64> = results
        .iter()
        .map(|(l, _)| *l)
        .filter(|l| l.is_finite())
        .collect();
    let avg = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
    Ok(BenchPoint {
        size,
        processes,
        latency_us: avg,
        bandwidth_mbps: 0.0,
    })
}

/// Two-sided windowed bandwidth (OSU `osu_bw` / `osu_mbw_mr`, multi-pair).
///
/// Returns the aggregate bandwidth over all pairs, MB/s.
pub fn two_sided_bandwidth(config: UniverseConfig, size: usize) -> Result<BenchPoint> {
    let processes = config.ranks;
    let iters = iterations_for(size);
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        comm.set_concurrency_hint((n / 2).max(1));
        let role = pair_of(comm.rank(), n);
        let payload = vec![0x5Au8; size];
        let mut ack = [0u8; 1];
        comm.barrier()?;
        let start = comm.clock_ns();
        for _ in 0..iters {
            match role {
                Some((true, peer)) => {
                    for _ in 0..BW_WINDOW {
                        comm.send(peer, 2, &payload)?;
                    }
                    comm.recv(Some(peer), Some(3), &mut ack)?;
                }
                Some((false, peer)) => {
                    let mut buf = vec![0u8; size];
                    for _ in 0..BW_WINDOW {
                        comm.recv(Some(peer), Some(2), &mut buf)?;
                    }
                    comm.send(peer, 3, &[1u8])?;
                }
                None => {}
            }
        }
        let elapsed = comm.clock_ns() - start;
        let bytes = (iters * BW_WINDOW * size) as f64;
        // Per-pair bandwidth in MB/s of virtual time, measured at the origin.
        Ok(if matches!(role, Some((true, _))) && elapsed > 0.0 {
            bytes / (elapsed * 1e-9) / 1e6
        } else {
            f64::NAN
        })
    })?;
    let per_pair: Vec<f64> = results
        .iter()
        .map(|(b, _)| *b)
        .filter(|b| b.is_finite())
        .collect();
    Ok(BenchPoint {
        size,
        processes,
        latency_us: 0.0,
        bandwidth_mbps: per_pair.iter().sum::<f64>(),
    })
}

/// One-sided put latency (OSU `osu_put_latency` with PSCW synchronization,
/// extended to any number of origin/target pairs as in the paper).
pub fn one_sided_put_latency(mut config: UniverseConfig, size: usize) -> Result<BenchPoint> {
    reserve_window_headroom(&mut config, size);
    let processes = config.ranks;
    let iters = iterations_for(size);
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        comm.set_concurrency_hint((n / 2).max(1));
        let role = pair_of(comm.rank(), n);
        let win = comm.win_allocate(size.max(8))?;
        let payload = vec![0xC3u8; size];
        comm.barrier()?;
        let start = comm.clock_ns();
        for _ in 0..iters {
            match role {
                Some((true, peer)) => {
                    comm.win_start(win, &[peer])?;
                    comm.put(win, peer, 0, &payload)?;
                    comm.win_complete(win)?;
                }
                Some((false, peer)) => {
                    comm.win_post(win, &[peer])?;
                    comm.win_wait(win)?;
                }
                None => {}
            }
        }
        let elapsed = comm.clock_ns() - start;
        comm.barrier()?;
        comm.win_free(win)?;
        Ok(if matches!(role, Some((true, _))) {
            elapsed / iters as f64 / 1000.0
        } else {
            f64::NAN
        })
    })?;
    let lats: Vec<f64> = results
        .iter()
        .map(|(l, _)| *l)
        .filter(|l| l.is_finite())
        .collect();
    let avg = lats.iter().sum::<f64>() / lats.len().max(1) as f64;
    Ok(BenchPoint {
        size,
        processes,
        latency_us: avg,
        bandwidth_mbps: 0.0,
    })
}

/// One-sided put bandwidth (OSU `osu_put_bw` with PSCW synchronization,
/// multi-pair). Returns the aggregate bandwidth across pairs, MB/s.
pub fn one_sided_put_bandwidth(mut config: UniverseConfig, size: usize) -> Result<BenchPoint> {
    reserve_window_headroom(&mut config, size);
    let processes = config.ranks;
    let iters = iterations_for(size);
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        comm.set_concurrency_hint((n / 2).max(1));
        let role = pair_of(comm.rank(), n);
        let win = comm.win_allocate(size.max(8))?;
        let payload = vec![0x3Cu8; size];
        comm.barrier()?;
        let start = comm.clock_ns();
        for _ in 0..iters {
            match role {
                Some((true, peer)) => {
                    comm.win_start(win, &[peer])?;
                    for _ in 0..BW_WINDOW {
                        comm.put(win, peer, 0, &payload)?;
                    }
                    comm.win_complete(win)?;
                }
                Some((false, peer)) => {
                    comm.win_post(win, &[peer])?;
                    comm.win_wait(win)?;
                }
                None => {}
            }
        }
        let elapsed = comm.clock_ns() - start;
        comm.barrier()?;
        comm.win_free(win)?;
        let bytes = (iters * BW_WINDOW * size) as f64;
        Ok(if matches!(role, Some((true, _))) && elapsed > 0.0 {
            bytes / (elapsed * 1e-9) / 1e6
        } else {
            f64::NAN
        })
    })?;
    let per_pair: Vec<f64> = results
        .iter()
        .map(|(b, _)| *b)
        .filter(|b| b.is_finite())
        .collect();
    Ok(BenchPoint {
        size,
        processes,
        latency_us: 0.0,
        bandwidth_mbps: per_pair.iter().sum::<f64>(),
    })
}

/// Sub-communicator allreduce latency (`osu_allreduce` restricted to
/// communicator groups): the world is split into `groups` equal parts with
/// `comm_split`, and every part concurrently runs an `allreduce<f64>` of
/// `elems` elements. Context-id isolation lets the groups' collectives
/// interleave without cross-matching — the scalesim-app pattern (row/column
/// reductions) measured at the OMB level.
///
/// Returns the average per-iteration allreduce latency across all ranks, µs.
pub fn subgroup_allreduce_latency(
    config: UniverseConfig,
    elems: usize,
    groups: usize,
) -> Result<BenchPoint> {
    let processes = config.ranks;
    let size = elems * 8;
    let iters = iterations_for(size);
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        let me = comm.rank();
        let groups = groups.clamp(1, n);
        comm.set_concurrency_hint((n / 2).max(1));
        let mut part = comm
            .comm_split((me % groups) as i32, me as i32)?
            .expect("every rank joins a group");
        let mut values = vec![1.0f64; elems];
        // Warm-up.
        for _ in 0..WARMUP {
            part.allreduce(&mut values, ReduceOp::Sum)?;
        }
        comm.barrier()?;
        let start = comm.clock_ns();
        for _ in 0..iters {
            part.allreduce(&mut values, ReduceOp::Sum)?;
        }
        let elapsed = comm.clock_ns() - start;
        Ok(elapsed / iters as f64 / 1000.0)
    })?;
    let avg = results.iter().map(|(l, _)| *l).sum::<f64>() / results.len().max(1) as f64;
    Ok(BenchPoint {
        size,
        processes,
        latency_us: avg,
        bandwidth_mbps: 0.0,
    })
}

/// One measured point of the compute/communication overlap kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlapPoint {
    /// Payload size of the collective, bytes.
    pub size: usize,
    /// Number of MPI processes participating.
    pub processes: usize,
    /// Simulated compute injected per rank while the collective was in
    /// flight, nanoseconds.
    pub compute_ns: f64,
    /// Average virtual time from starting the collective to completion
    /// (compute included), nanoseconds.
    pub total_ns: f64,
    /// Schedule ops serviced by `test` polls during the compute phase,
    /// summed across ranks — the "progress made during user compute" figure.
    pub ops_during_compute: u64,
    /// Schedule ops left to the terminal wait, summed across ranks — by the
    /// wait itself, or by the background engine after compute ended.
    pub ops_in_wait: u64,
    /// Fraction of all schedule ops that were serviced during compute rather
    /// than inside the terminal wait (1.0 = the collective fully overlapped).
    pub overlap_fraction: f64,
}

/// How long a rank under the progress thread computes, at most, while it
/// waits for the engine to finish its collective: a bound on a hang, not a
/// measurement.
pub const HANG_GUARD: std::time::Duration = std::time::Duration::from_secs(60);

/// Compute/communication overlap (OSU `osu_iallreduce`-style): every rank
/// starts an `iallreduce` of `elems` f64 values, then "computes" for
/// `compute_ns` of virtual time sliced into intervals, and finally waits.
/// The returned point separates the schedule ops serviced during compute
/// (overlap achieved) from those left to the terminal wait.
///
/// The compute phase depends on the progress mode, mirroring how a real
/// application would be written under each:
///
/// - **Polling** (weak progress): each slice advances the clock, drains the
///   transport ([`Comm::progress`]) and `test`s the request — the app must
///   donate cycles or nothing moves.
/// - **Thread** (strong progress): the slices advance the clock, and the
///   rank then keeps computing — makes no MPI call — until the background
///   engine has run the request's schedule to its end
///   ([`Request::coll_done`](cmpi_core::Request::coll_done)), so
///   the terminal wait has nothing left to service. [`HANG_GUARD`] bounds
///   that compute: an engine that stalls leaves its ops to the wait, where
///   they show in [`OverlapPoint::ops_in_wait`].
pub fn nonblocking_allreduce_overlap(
    config: UniverseConfig,
    elems: usize,
    compute_ns: f64,
) -> Result<OverlapPoint> {
    let processes = config.ranks;
    let threaded = config.progress == ProgressMode::Thread;
    let results = Universe::run(config, move |comm: &mut Comm| {
        let n = comm.size();
        comm.set_concurrency_hint((n / 2).max(1));
        let values = vec![1.0f64; elems];
        // Warm-up: one blocking allreduce on a scratch copy.
        let mut warm = values.clone();
        comm.allreduce(&mut warm, ReduceOp::Sum)?;
        comm.barrier()?;
        let start = comm.clock_ns();
        let mut req = comm.iallreduce(&values, ReduceOp::Sum)?;
        const SLICES: usize = 16;
        for _ in 0..SLICES {
            comm.advance_clock(compute_ns / SLICES as f64);
            if !threaded {
                comm.progress()?;
                comm.test(&mut req)?;
            }
        }
        if threaded {
            let began = std::time::Instant::now();
            while !req.coll_done() && began.elapsed() < HANG_GUARD {
                std::thread::sleep(std::time::Duration::from_micros(50));
            }
        }
        // Engine ops serviced so far happened during the compute phase; any
        // further engine ops overlap nothing (the rank just waits for them).
        let thread_ops_in_compute = comm.progress_stats().ops_in_thread;
        comm.wait(&mut req)?;
        let out: Vec<f64> = req.take_values()?;
        debug_assert!(out.iter().all(|&v| v == n as f64));
        Ok((comm.clock_ns() - start, thread_ops_in_compute))
    })?;
    let total_ns = results.iter().map(|((t, _), _)| *t).sum::<f64>() / results.len().max(1) as f64;
    // Overlap numerator: ops serviced during the compute phase — by `test`
    // polls in Polling mode, by the background engine in Thread mode.
    // Engine ops that landed after compute ended (while the rank sat in the
    // terminal wait) count as un-overlapped, like wait-driven ops.
    let (mut overlapped, mut in_wait) = (0u64, 0u64);
    for ((_, thread_ops_in_compute), report) in &results {
        overlapped += report.progress.ops_in_test + thread_ops_in_compute;
        in_wait += report.progress.ops_in_wait
            + report
                .progress
                .ops_in_thread
                .saturating_sub(*thread_ops_in_compute);
    }
    let denom = overlapped + in_wait;
    Ok(OverlapPoint {
        size: elems * 8,
        processes,
        compute_ns,
        total_ns,
        ops_during_compute: overlapped,
        ops_in_wait: in_wait,
        overlap_fraction: if denom == 0 {
            0.0
        } else {
            overlapped as f64 / denom as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_fabric::cost::TcpNic;

    #[test]
    fn pairing_splits_halves() {
        assert_eq!(pair_of(0, 8), Some((true, 4)));
        assert_eq!(pair_of(3, 8), Some((true, 7)));
        assert_eq!(pair_of(4, 8), Some((false, 0)));
        assert_eq!(pair_of(7, 8), Some((false, 3)));
    }

    #[test]
    fn odd_worlds_idle_the_middle_rank() {
        // n=5: origins 0,1 pair with 3,4; rank 2 sits out.
        assert_eq!(pair_of(0, 5), Some((true, 3)));
        assert_eq!(pair_of(1, 5), Some((true, 4)));
        assert_eq!(pair_of(2, 5), None);
        assert_eq!(pair_of(3, 5), Some((false, 0)));
        assert_eq!(pair_of(4, 5), Some((false, 1)));
        // n=7: rank 3 idles and the pairing stays a bijection.
        assert_eq!(pair_of(3, 7), None);
        for r in [0usize, 1, 2] {
            let Some((true, peer)) = pair_of(r, 7) else {
                panic!("rank {r} must originate");
            };
            assert_eq!(pair_of(peer, 7), Some((false, r)));
        }
    }

    #[test]
    fn odd_world_latency_and_bandwidth_complete() {
        // The old pairing aliased the middle rank onto another pair's target
        // at odd n, wedging every kernel; n=5 and n=7 must now finish.
        for n in [5usize, 7] {
            let lat = two_sided_latency(UniverseConfig::cxl(n), 64).unwrap();
            assert!(lat.latency_us.is_finite() && lat.latency_us > 0.0);
            assert_eq!(lat.processes, n);
            let bw = two_sided_bandwidth(UniverseConfig::cxl(n), 4096).unwrap();
            assert!(bw.bandwidth_mbps > 0.0);
        }
        // One-sided PSCW at n=5 exercises the idle rank through the
        // collective window allocate/free path.
        let one = one_sided_put_latency(UniverseConfig::cxl(5), 256).unwrap();
        assert!(one.latency_us.is_finite() && one.latency_us > 0.0);
    }

    #[test]
    fn iterations_shrink_with_size() {
        assert!(iterations_for(8) > iterations_for(1 << 20));
        assert!(iterations_for(1 << 20) >= iterations_for(8 << 20));
    }

    #[test]
    fn cxl_small_message_latency_near_anchor() {
        // Paper: ~12 µs small-message latency over CXL SHM.
        let point = two_sided_latency(UniverseConfig::cxl(2), 8).unwrap();
        assert!(
            (5.0..25.0).contains(&point.latency_us),
            "{}",
            point.latency_us
        );
    }

    #[test]
    fn ethernet_two_sided_latency_near_anchor() {
        // Paper: ~160 µs small-message two-sided latency over TCP/Ethernet.
        let point = two_sided_latency(UniverseConfig::tcp(2, TcpNic::StandardEthernet), 8).unwrap();
        assert!(
            (120.0..220.0).contains(&point.latency_us),
            "{}",
            point.latency_us
        );
    }

    #[test]
    fn one_sided_tcp_latency_much_higher_than_two_sided() {
        // Paper: one-sided over TCP pays heavy synchronization (≈630 µs vs
        // ≈160 µs on Ethernet).
        let two = two_sided_latency(UniverseConfig::tcp(2, TcpNic::StandardEthernet), 8).unwrap();
        let one =
            one_sided_put_latency(UniverseConfig::tcp(2, TcpNic::StandardEthernet), 8).unwrap();
        assert!(
            one.latency_us > two.latency_us * 2.5,
            "one-sided {} vs two-sided {}",
            one.latency_us,
            two.latency_us
        );
    }

    #[test]
    fn cxl_bandwidth_beats_ethernet() {
        let cxl = two_sided_bandwidth(UniverseConfig::cxl(4), 16 * 1024).unwrap();
        let eth = two_sided_bandwidth(UniverseConfig::tcp(4, TcpNic::StandardEthernet), 16 * 1024)
            .unwrap();
        assert!(
            cxl.bandwidth_mbps > eth.bandwidth_mbps * 5.0,
            "cxl {} vs eth {}",
            cxl.bandwidth_mbps,
            eth.bandwidth_mbps
        );
    }

    #[test]
    fn one_sided_bandwidth_positive_on_cxl() {
        let p = one_sided_put_bandwidth(UniverseConfig::cxl(4), 4096).unwrap();
        assert!(p.bandwidth_mbps > 0.0);
        assert_eq!(p.processes, 4);
    }

    #[test]
    fn overlap_kernel_services_ops_during_compute() {
        for config in [
            UniverseConfig::cxl(4),
            UniverseConfig::tcp(4, TcpNic::MellanoxCx6Dx),
        ] {
            let p = nonblocking_allreduce_overlap(config, 256, 50_000.0).unwrap();
            assert_eq!(p.processes, 4);
            assert_eq!(p.size, 2048);
            assert!(p.total_ns > 0.0);
            assert!(
                p.ops_during_compute > 0,
                "no progress during compute: {p:?}"
            );
            assert!((0.0..=1.0).contains(&p.overlap_fraction));
        }
    }

    #[test]
    fn thread_mode_overlaps_almost_everything() {
        // With a background progress thread the collective completes inside
        // the compute phase: the rank makes no MPI call until the engine has
        // run the schedule to its end, so the terminal wait services nothing.
        for config in [
            UniverseConfig::cxl(4),
            UniverseConfig::tcp(4, TcpNic::MellanoxCx6Dx),
        ] {
            let p = nonblocking_allreduce_overlap(
                config.with_progress_mode(ProgressMode::Thread),
                1024,
                100_000.0,
            )
            .unwrap();
            assert!(p.ops_during_compute > 0, "no engine progress: {p:?}");
            assert_eq!(p.ops_in_wait, 0, "the wait serviced ops: {p:?}");
            assert_eq!(p.overlap_fraction, 1.0, "{p:?}");
        }
    }

    #[test]
    fn subgroup_allreduce_runs_on_both_transports() {
        for config in [
            UniverseConfig::cxl(8),
            UniverseConfig::tcp(8, TcpNic::MellanoxCx6Dx),
        ] {
            let p = subgroup_allreduce_latency(config, 16, 2).unwrap();
            assert!(p.latency_us > 0.0);
            assert_eq!(p.size, 128);
            assert_eq!(p.processes, 8);
        }
    }

    #[test]
    fn smaller_subgroups_reduce_faster_than_the_world() {
        // Halving the communicator halves the recursive-doubling depth: the
        // 4-way split must beat the single world-wide allreduce.
        let world = subgroup_allreduce_latency(UniverseConfig::cxl(8), 64, 1).unwrap();
        let split = subgroup_allreduce_latency(UniverseConfig::cxl(8), 64, 4).unwrap();
        assert!(
            split.latency_us < world.latency_us,
            "split {} vs world {}",
            split.latency_us,
            world.latency_us
        );
    }
}
