//! RPC-storm serving kernel: many concurrent small operations per rank.
//!
//! The serving scenario behind `rpc_storm` (the ROADMAP item *Cause-tagged
//! virtual time*): every rank hosts `K`
//! submitter threads (each on its own `comm_dup`'d communicator, the
//! MPI_THREAD_MULTIPLE model), and every submitter keeps a window of `W`
//! small **persistent allreduces** in flight, sliding the window until its
//! operation quota is met; every eighth completion is replaced by a
//! nonblocking **p2p ring exchange** so the storm mixes collective and
//! point-to-point traffic. The kernel reports aggregate throughput and the
//! completion-latency tail (p50/p99/p999).
//!
//! Unlike every other kernel in this crate, the storm is measured in
//! **wall-clock** time, not virtual time: its subject is the runtime's own
//! software overhead — lock sharding, progress-engine scheduling, wakeup
//! latency — which the virtual clocks deliberately exclude.

use std::time::{Duration, Instant};

use cmpi_core::{Comm, ProgressMode, ReduceOp, Universe, UniverseConfig};

use crate::Result;

/// One measured point of the RPC-storm kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpcStormPoint {
    /// Number of MPI processes participating.
    pub processes: usize,
    /// Concurrent submitter threads per rank.
    pub submitters: usize,
    /// Outstanding persistent operations per submitter (window size).
    pub inflight: usize,
    /// Payload size of each operation, bytes.
    pub size: usize,
    /// Closed-loop client think time between completions, microseconds
    /// (0 = saturation mode: resubmit immediately).
    pub think_us: u64,
    /// Progress mode the storm ran under.
    pub mode: ProgressMode,
    /// Total operations completed across all ranks and submitters.
    pub ops: u64,
    /// Wall-clock duration of the storm (max over ranks), milliseconds.
    pub wall_ms: f64,
    /// Aggregate completion rate, operations per second (all ranks).
    pub ops_per_sec: f64,
    /// Median completion latency, microseconds (wall clock).
    pub p50_us: f64,
    /// 99th-percentile completion latency, microseconds.
    pub p99_us: f64,
    /// 99.9th-percentile completion latency, microseconds.
    pub p999_us: f64,
}

/// Nearest-rank percentile of an **ascending-sorted** latency sample, ns in /
/// µs out.
fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 * q).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[idx] as f64 / 1000.0
}

/// One submitter thread's storm on its private communicator: keep `inflight`
/// persistent allreduces outstanding, sliding the window until `quota`
/// completions; every eighth completion is a nonblocking p2p ring exchange
/// instead. `think_us > 0` models a closed-loop client that pauses between a
/// completion and the next submission (request handling / arrival gap);
/// think time is excluded from the recorded per-op latencies. Returns
/// per-op wall-clock completion latencies, ns.
fn submitter_storm(
    c: &mut Comm,
    thread: usize,
    inflight: usize,
    elems: usize,
    quota: usize,
    think_us: u64,
) -> Result<Vec<u64>> {
    let me = c.rank();
    let n = c.size();
    let vals = vec![(me + thread) as u64; elems];
    let window = inflight.min(quota).max(1);
    let mut reqs = Vec::with_capacity(window);
    let mut started_at = Vec::with_capacity(window);
    for _ in 0..window {
        let mut r = c.allreduce_init(&vals, ReduceOp::Sum)?;
        c.start(&mut r)?;
        started_at.push(Instant::now());
        reqs.push(r);
    }
    let mut started = window;
    let mut lats = Vec::with_capacity(quota);
    for completed in 0..quota {
        let slot = completed % window;
        c.wait(&mut reqs[slot])?;
        lats.push(started_at[slot].elapsed().as_nanos() as u64);
        // Mixed traffic: a nonblocking ring exchange (eager isend + posted
        // irecv) between windowed collective completions.
        if completed % 8 == 7 && n > 1 {
            let t0 = Instant::now();
            let dst = (me + 1) % n;
            let src = (me + n - 1) % n;
            let tag = (completed & 0x3FF) as i32;
            let payload = vec![0x42u8; elems * 8];
            let mut sreq = c.isend(dst, tag, &payload)?;
            let mut rreq = c.irecv_into(Some(src), Some(tag), vec![0u8; elems * 8])?;
            c.wait(&mut rreq)?;
            c.wait(&mut sreq)?;
            lats.push(t0.elapsed().as_nanos() as u64);
        }
        if started < quota {
            if think_us > 0 {
                // Closed-loop client: think before the next submission.
                std::thread::sleep(Duration::from_micros(think_us));
            }
            c.start(&mut reqs[slot])?;
            started_at[slot] = Instant::now();
            started += 1;
        }
    }
    for mut r in reqs {
        r.release()?;
    }
    Ok(lats)
}

/// Run the RPC storm: `submitters` threads per rank × `inflight` outstanding
/// persistent allreduces of `elems` u64 values each, `quota` completions per
/// submitter (plus the interleaved p2p exchanges), with `think_us`
/// microseconds of closed-loop client think time between a completion and
/// the next submission (0 = saturation mode).
///
/// With think time the storm is the classic closed-loop serving benchmark:
/// a single submitter is latency-bound (it spends most of its wall clock in
/// think/arrival gaps), and added submitters buy throughput exactly insofar
/// as the runtime can serve their requests concurrently instead of
/// serializing them — the property the per-communicator sharding and the
/// poller hand-off exist to provide.
///
/// Throughput is total completions across all ranks divided by the slowest
/// rank's wall time; percentiles are computed over the pooled per-op
/// completion latencies of every submitter on every rank (think time
/// excluded).
pub fn rpc_storm(
    config: UniverseConfig,
    submitters: usize,
    inflight: usize,
    elems: usize,
    quota: usize,
    think_us: u64,
) -> Result<RpcStormPoint> {
    let processes = config.ranks;
    let mode = config.progress;
    let results = Universe::run(config, move |comm: &mut Comm| {
        // Communicator construction is collective: derive the per-thread
        // communicators serially, in the same order on every rank.
        let mut comms: Vec<Comm> = (0..submitters)
            .map(|_| comm.comm_dup())
            .collect::<Result<_>>()?;
        comm.barrier()?;
        let start = Instant::now();
        let lats: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .drain(..)
                .enumerate()
                .map(|(t, mut c)| {
                    s.spawn(move || submitter_storm(&mut c, t, inflight, elems, quota, think_us))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter thread panicked"))
                .collect::<Result<_>>()
        })?;
        let wall_ns = start.elapsed().as_nanos() as u64;
        comm.barrier()?;
        Ok((lats.concat(), wall_ns))
    })?;
    let mut all_lats: Vec<u64> = Vec::new();
    let mut max_wall_ns = 0u64;
    for ((lats, wall_ns), _) in &results {
        all_lats.extend_from_slice(lats);
        max_wall_ns = max_wall_ns.max(*wall_ns);
    }
    all_lats.sort_unstable();
    let ops = all_lats.len() as u64;
    let wall_s = (max_wall_ns as f64 / 1e9).max(1e-9);
    Ok(RpcStormPoint {
        processes,
        submitters,
        inflight,
        size: elems * 8,
        think_us,
        mode,
        ops,
        wall_ms: max_wall_ns as f64 / 1e6,
        ops_per_sec: ops as f64 / wall_s,
        p50_us: percentile_us(&all_lats, 0.50),
        p99_us: percentile_us(&all_lats, 0.99),
        p999_us: percentile_us(&all_lats, 0.999),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmpi_fabric::cost::TcpNic;

    #[test]
    fn percentiles_pick_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).map(|i| i * 1000).collect();
        assert_eq!(percentile_us(&sorted, 0.50), 500.0);
        assert_eq!(percentile_us(&sorted, 0.99), 990.0);
        assert_eq!(percentile_us(&sorted, 0.999), 999.0);
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[7000], 0.999), 7.0);
    }

    #[test]
    fn storm_completes_on_both_transports_and_modes() {
        for config in [
            UniverseConfig::cxl_small(3),
            UniverseConfig::tcp(3, TcpNic::MellanoxCx6Dx),
        ] {
            for mode in [ProgressMode::Polling, ProgressMode::Thread] {
                let p = rpc_storm(config.clone().with_progress_mode(mode), 2, 4, 4, 48, 0).unwrap();
                // 48 windowed completions + 6 p2p exchanges, × 2 submitters
                // × 3 ranks.
                assert_eq!(p.ops, 3 * 2 * (48 + 48 / 8), "{p:?}");
                assert!(p.ops_per_sec > 0.0);
                assert!(p.p50_us <= p.p99_us && p.p99_us <= p.p999_us, "{p:?}");
                assert_eq!(p.mode, mode);
                assert_eq!(p.size, 32);
            }
        }
    }

    #[test]
    #[ignore = "manual probe: prints the submitter-scaling curve"]
    fn storm_scaling_probe() {
        for think_us in [0u64, 50] {
            for mode in [ProgressMode::Polling, ProgressMode::Thread] {
                let mut base = 0.0;
                for k in [1usize, 2, 4, 8] {
                    let p = rpc_storm(
                        UniverseConfig::cxl(4).with_progress_mode(mode),
                        k,
                        1,
                        4,
                        256,
                        think_us,
                    )
                    .unwrap();
                    if k == 1 {
                        base = p.ops_per_sec;
                    }
                    eprintln!(
                        "think={think_us}us {:?} K={k}: {:.0} ops/s ({:.2}x) p50={:.1}us p99={:.1}us p999={:.1}us wall={:.0}ms",
                        mode,
                        p.ops_per_sec,
                        p.ops_per_sec / base,
                        p.p50_us,
                        p.p99_us,
                        p.p999_us,
                        p.wall_ms
                    );
                }
            }
        }
    }

    #[test]
    fn single_submitter_storm_degenerates_cleanly() {
        // One submitter, window larger than the quota: the window clamps.
        let p = rpc_storm(UniverseConfig::cxl_small(2), 1, 16, 2, 8, 0).unwrap();
        assert_eq!(p.ops, 2 * (8 + 1));
        assert_eq!(p.submitters, 1);
    }
}
