//! MPI_THREAD_MULTIPLE-style concurrency: several user threads of one rank
//! drive *distinct* communicators simultaneously (the supported model —
//! concurrent calls on one communicator remain undefined, as in MPI).
//!
//! The randomized stress test mixes blocking, nonblocking and persistent
//! collectives on disjoint `comm_dup`'d communicators from T submitter
//! threads per rank, byte-checking every result, across n = 3, 5, 7 × both
//! transports × both progress modes. Companion tests pin the Thread-mode
//! contract (the background engine does the work; waits merely observe and
//! are woken by a directed unpark), the futures adapter
//! (`CompletionFuture` / `block_on` / `join_all`), and the one thing threads
//! of a rank do share — the pair's queue toward a peer: a message blocked
//! half out keeps it until its last segment.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cmpi::mpi::future::{block_on, join_all, CompletionFuture};
use cmpi::mpi::{Comm, ProgressMode, ReduceOp, TransportConfig, Universe, UniverseConfig};

mod common;
use common::{configs, p2p_paths, promote};

/// Deterministic split-mix style generator (no external crates). Seeded
/// identically on every rank, so all ranks of a communicator pick the same
/// collective sequence — the MPI ordering requirement.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The two-transport matrix crossed with both progress modes.
fn mode_configs(ranks: usize) -> Vec<(String, UniverseConfig)> {
    let mut out = Vec::new();
    for (label, config) in configs(ranks) {
        for mode in [ProgressMode::Polling, ProgressMode::Thread] {
            out.push((
                format!("{label}/{}", mode.label()),
                config.clone().with_progress_mode(mode),
            ));
        }
    }
    out
}

/// Sum over all ranks of `base + rank`, for `size` ranks.
fn rank_sum(base: u64, size: usize) -> u64 {
    (0..size as u64).map(|r| base + r).sum()
}

/// One submitter thread's workload on its private communicator: `rounds`
/// randomly chosen collectives (same choices on every rank — the LCG is
/// seeded per thread, not per rank), every result byte-checked.
fn thread_workload(comm: &mut Comm, thread: u64, rounds: u64) -> cmpi::mpi::Result<()> {
    let me = comm.rank() as u64;
    let n = comm.size();
    let mut lcg = Lcg::new(0xC0FFEE ^ (thread << 20));
    for round in 0..rounds {
        let base = thread * 1000 + round * 10;
        match lcg.below(6) {
            0 => {
                // Blocking allreduce.
                let mut vals = vec![base + me; 8];
                comm.allreduce(&mut vals, ReduceOp::Sum)?;
                assert_eq!(vals, vec![rank_sum(base, n); 8]);
            }
            1 => {
                // Nonblocking allreduce completed by wait.
                let vals = vec![base + me; 16];
                let mut req = comm.iallreduce(&vals, ReduceOp::Sum)?;
                comm.wait(&mut req)?;
                assert_eq!(req.take_values::<u64>()?, vec![rank_sum(base, n); 16]);
            }
            2 => {
                // Persistent allreduce: two starts with rewritten input.
                let vals = vec![base + me; 8];
                let mut req = comm.allreduce_init(&vals, ReduceOp::Sum)?;
                comm.start(&mut req)?;
                comm.wait(&mut req)?;
                assert_eq!(req.read_result::<u64>()?, vec![rank_sum(base, n); 8]);
                req.write_input(&[base + me + 1; 8])?;
                comm.start(&mut req)?;
                comm.wait(&mut req)?;
                assert_eq!(req.read_result::<u64>()?, vec![rank_sum(base + 1, n); 8]);
                req.release()?;
            }
            3 => {
                // Nonblocking broadcast from a rotating root.
                let root = (round as usize) % n;
                let vals = vec![base + me; 12];
                let mut req = comm.ibcast_into(root, &vals)?;
                comm.wait(&mut req)?;
                assert_eq!(
                    req.take_values::<u64>()?,
                    vec![base + root as u64; 12],
                    "bcast root {root}"
                );
            }
            4 => {
                // Nonblocking allgather, completed by test polling.
                let vals = [base + me; 4];
                let mut req = comm.iallgather_into(&vals)?;
                while comm.test(&mut req)?.is_none() {
                    std::hint::spin_loop();
                }
                let gathered = req.take_values::<u64>()?;
                let expected: Vec<u64> = (0..n as u64)
                    .flat_map(|r| std::iter::repeat_n(base + r, 4))
                    .collect();
                assert_eq!(gathered, expected);
            }
            _ => {
                comm.barrier()?;
            }
        }
    }
    comm.barrier()?;
    Ok(())
}

#[test]
fn multithreaded_disjoint_comms_stress() {
    const THREADS: u64 = 3;
    const ROUNDS: u64 = 4;
    for n in [3usize, 5, 7] {
        for (label, config) in mode_configs(n) {
            Universe::run(config, move |comm: &mut Comm| {
                // Communicator construction is itself collective: derive the
                // per-thread communicators serially on the main thread, in
                // the same order on every rank.
                let mut comms: Vec<Comm> = (0..THREADS)
                    .map(|_| comm.comm_dup())
                    .collect::<cmpi::mpi::Result<_>>()?;
                std::thread::scope(|s| {
                    let handles: Vec<_> = comms
                        .drain(..)
                        .enumerate()
                        .map(|(t, mut c)| {
                            s.spawn(move || {
                                thread_workload(&mut c, t as u64, ROUNDS)
                                    .unwrap_or_else(|e| panic!("thread {t}: {e}"));
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().expect("submitter thread panicked");
                    }
                });
                // The world communicator stayed usable underneath.
                let mut one = vec![1u64];
                comm.allreduce(&mut one, ReduceOp::Sum)?;
                assert_eq!(one[0], comm.size() as u64);
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        }
    }
}

#[test]
fn thread_mode_engine_does_the_work_and_wakes_waiters() {
    // In Thread mode the background engine drives outstanding schedules:
    // waits park on the operation cell (directed unpark, no timeout sweep)
    // and service zero schedule ops themselves. The wall-clock bound is the
    // wakeup-latency assertion: a parked wait must return promptly once the
    // engine publishes completion — lost wakeups would eat the full
    // 10 s cap instead.
    for (label, config) in configs(4) {
        let config = config.with_progress_mode(ProgressMode::Thread);
        let results = Universe::run(config, |comm: &mut Comm| {
            let vals = vec![comm.rank() as u64; 64];
            let expected = vec![rank_sum(0, comm.size()); 64];
            for _ in 0..8 {
                let mut req = comm.iallreduce(&vals, ReduceOp::Sum)?;
                let started = Instant::now();
                comm.wait(&mut req)?;
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "wait did not wake promptly"
                );
                assert_eq!(req.take_values::<u64>()?, expected);
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        for (_, report) in &results {
            assert!(
                report.progress.ops_in_thread > 0,
                "{label}: engine serviced no ops: {:?}",
                report.progress
            );
            assert_eq!(
                report.progress.ops_in_wait, 0,
                "{label}: waits drove the schedule in Thread mode: {:?}",
                report.progress
            );
        }
    }
}

#[test]
fn futures_adapter_completes_requests_in_both_modes() {
    for (label, config) in mode_configs(4) {
        Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank() as u64;
            let n = comm.size();

            // One communicator, several requests: an async waitall.
            let a = vec![me; 8];
            let b = vec![me + 100; 8];
            let mut reqs = vec![
                comm.iallreduce(&a, ReduceOp::Sum)?,
                comm.iallreduce(&b, ReduceOp::Sum)?,
            ];
            let statuses = block_on(CompletionFuture::new(comm, &mut reqs))?;
            assert_eq!(statuses.len(), 2);
            assert_eq!(reqs[0].take_values::<u64>()?, vec![rank_sum(0, n); 8]);
            assert_eq!(reqs[1].take_values::<u64>()?, vec![rank_sum(100, n); 8]);

            // Two communicators joined from one thread: the futures-level
            // face of MPI_THREAD_MULTIPLE's per-communicator independence.
            let mut dup = comm.comm_dup()?;
            let x = vec![me + 7; 4];
            let y = vec![me + 9; 4];
            let mut rx = vec![comm.iallreduce(&x, ReduceOp::Sum)?];
            let mut ry = vec![dup.iallreduce(&y, ReduceOp::Sum)?];
            let futs: Vec<Pin<Box<dyn Future<Output = _>>>> = vec![
                Box::pin(CompletionFuture::new(comm, &mut rx)),
                Box::pin(CompletionFuture::new(&mut dup, &mut ry)),
            ];
            for out in block_on(join_all(futs)) {
                out?;
            }
            assert_eq!(rx[0].take_values::<u64>()?, vec![rank_sum(7, n); 4]);
            assert_eq!(ry[0].take_values::<u64>()?, vec![rank_sum(9, n); 4]);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Spin until `flag` is up. The bound is only there so that a rank which
/// died before raising it fails the test instead of hanging it.
fn await_flag(flag: &AtomicBool) {
    let started = Instant::now();
    while !flag.load(Ordering::Acquire) {
        assert!(started.elapsed() < Duration::from_secs(60), "flag never up");
        std::thread::yield_now();
    }
}

/// Continuation segments of a message carry no frame, and the receiver keeps
/// one reassembly per sender: from a message's first segment to its last, the
/// pair's queue belongs to that message. Thread A's `sendrecv` is eight times
/// what the queue holds, so it blocks mid-message until rank 1 receives;
/// thread B, on another communicator, sends to the same peer meanwhile. Rank 1
/// holds off until A's first segment is up and B is on its way in, then
/// receives both and compares every byte.
#[test]
fn a_send_from_another_thread_stays_out_of_a_sendrecv_blocked_mid_message() {
    const CAPACITY: usize = 4 * 1024;
    const LARGE: usize = 8 * CAPACITY;
    const SMALLS: u8 = 16;
    let pattern = |len: usize, stamp: u8| -> Vec<u8> {
        (0..len).map(|i| (i * 31 + i / 251) as u8 ^ stamp).collect()
    };
    for (label, config) in p2p_paths() {
        if let TransportConfig::CxlShm(c) = &config.transport {
            assert_eq!(c.cell_size * c.cells_per_queue, CAPACITY);
        }
        let a_is_out = Arc::new(AtomicBool::new(false));
        let b_is_in = Arc::new(AtomicBool::new(false));
        Universe::run(config, move |comm: &mut Comm| {
            let (mut a, mut b) = (comm.comm_dup()?, comm.comm_dup()?);
            promote(comm, 0, 1)?;
            if comm.rank() == 0 {
                let (a_is_out, b_is_in) = (&a_is_out, &b_is_in);
                std::thread::scope(|s| {
                    let large = s.spawn(move || a.sendrecv(1, 1, &pattern(LARGE, 0xA5), 1, 2));
                    let smalls = s.spawn(move || {
                        await_flag(a_is_out);
                        b_is_in.store(true, Ordering::Release);
                        (0..SMALLS).try_for_each(|i| b.send(1, 3, &pattern(64, i)))
                    });
                    let (_, reply) = large.join().expect("thread A panicked")?;
                    assert_eq!(reply, [7u8; 8], "{label}");
                    smalls.join().expect("thread B panicked")
                })?;
            } else {
                // The head of A's message is up (a probe consumes nothing):
                // A is blocked behind it. Let B in, then start receiving.
                while a.iprobe(Some(0), Some(1))?.is_none() {
                    std::thread::yield_now();
                }
                a_is_out.store(true, Ordering::Release);
                await_flag(&b_is_in);
                let (status, large) = a.recv_owned(Some(0), Some(1))?;
                assert_eq!(status.len, LARGE, "{label}");
                assert!(
                    large == pattern(LARGE, 0xA5),
                    "{label}: thread B's bytes inside thread A's message"
                );
                a.send(0, 2, &[7u8; 8])?;
                let mut small = [0u8; 64];
                for i in 0..SMALLS {
                    b.recv(Some(0), Some(3), &mut small)?;
                    assert_eq!(small[..], pattern(64, i), "{label}: small {i}");
                }
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}
