//! Small collectives on the shared-window data plane: payloads that ride in
//! the flag line or in stamped lines of their own, the
//! one-completion-line-per-rank slot protocol, and the zero-byte barrier
//! exchange — checked byte for byte against the ring path, under stragglers
//! and out-of-order completion, for repeatable virtual clocks, and against a
//! budget of device round trips; what a run of reads out of data slots costs,
//! under skew too; what an irregular exchange on the window costs, and that it
//! costs the same in every launch; and that ranks pricing their plans agree
//! whatever crowd each was told to expect.

use std::time::Duration;

use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::transport::DataPlaneStats;
use cmpi::mpi::{CollTuning, Comm, ProgressMode, ReduceOp, Request, Universe, UniverseConfig};

mod common;
use common::{
    dp_cost, force_ring, force_shm, matrix_hosts, peers_pieces, publish_joined, stamped,
    stamped_read, steady_completions, with_window_headroom,
};

/// The payload sizes that straddle the flag line's 48-byte capacity, the
/// second stamped line's, and stamped lines against a data slot.
const SIZES: [usize; 8] = [0, 8, 48, 49, 64, 105, 1024, 8 * 1024];

fn config(n: usize, hosts: usize, tuning: CollTuning) -> UniverseConfig {
    let config = UniverseConfig::cxl_small(n).with_hosts(hosts);
    with_window_headroom(config, 64 * 1024 * 1024).with_coll_tuning(tuning)
}

/// Byte `i` of what `rank` contributes to collective number `round`.
fn byte(rank: usize, round: usize, i: usize) -> u8 {
    (rank * 37 + round * 11 + i * 5 + 1) as u8
}

fn payload(rank: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| byte(rank, round, i)).collect()
}

/// Wait for a collective request and append its result bytes to `out`.
fn finish(comm: &mut Comm, mut req: Request, out: &mut Vec<u8>) -> cmpi::mpi::Result<()> {
    comm.wait(&mut req)?;
    out.extend(req.take_values::<u8>()?);
    Ok(())
}

/// Start a persistent request twice — the second time on a rewritten input,
/// where this rank contributes one — and append both results to `out`.
fn restart(
    comm: &mut Comm,
    mut req: Request,
    second_input: Option<&[u8]>,
    out: &mut Vec<u8>,
) -> cmpi::mpi::Result<()> {
    for start in 0..2 {
        if let (1, Some(input)) = (start, second_input) {
            req.write_input(input)?;
        }
        comm.start(&mut req)?;
        comm.wait(&mut req)?;
        out.extend(req.read_result::<u8>()?);
    }
    req.release()
}

/// Barrier, bcast, allreduce, allgather and alltoall at `bytes` (per rank,
/// and per peer for alltoall) through the blocking, `i*` and persistent
/// forms; every result byte this rank saw, in call order.
fn drive(comm: &mut Comm, bytes: usize) -> cmpi::mpi::Result<(Vec<u8>, Vec<String>)> {
    let (n, me) = (comm.size(), comm.rank());
    let mut out = Vec::new();
    let mut labels = Vec::new();
    let mut round = 0;
    let mut next_round = || {
        round += 1;
        round
    };

    comm.barrier()?;
    labels.push(comm.last_coll_algorithm().to_string());
    let mut b = comm.ibarrier()?;
    comm.wait(&mut b)?;
    let mut b = comm.barrier_init()?;
    for _ in 0..2 {
        comm.start(&mut b)?;
        comm.wait(&mut b)?;
    }
    b.release()?;

    // Broadcast, the root rotating with the round.
    let r = next_round();
    let root = r % n;
    let mut buf = payload(root, r, bytes);
    if me != root {
        buf.fill(0);
    }
    comm.bcast_into(root, &mut buf)?;
    labels.push(comm.last_coll_algorithm().to_string());
    out.extend(&buf);
    let r = next_round();
    let root = r % n;
    let req = comm.ibcast_into(root, &payload(root, r, bytes))?;
    finish(comm, req, &mut out)?;
    let r = next_round();
    let root = r % n;
    let req = comm.bcast_init(root, &payload(root, r, bytes))?;
    // Only the root contributes to a broadcast.
    let second = payload(root, r + 100, bytes);
    restart(comm, req, (me == root).then_some(&second[..]), &mut out)?;

    // Allreduce (wrapping byte sums: exact on every path).
    let r = next_round();
    let mut v = payload(me, r, bytes);
    comm.allreduce(&mut v, ReduceOp::Sum)?;
    labels.push(comm.last_coll_algorithm().to_string());
    out.extend(&v);
    let r = next_round();
    let req = comm.iallreduce(&payload(me, r, bytes), ReduceOp::Sum)?;
    finish(comm, req, &mut out)?;
    let r = next_round();
    let req = comm.allreduce_init(&payload(me, r, bytes), ReduceOp::Max)?;
    restart(comm, req, Some(&payload(me, r + 100, bytes)), &mut out)?;

    // Allgather.
    let r = next_round();
    let mut all = vec![0u8; n * bytes];
    comm.allgather_into(&payload(me, r, bytes), &mut all)?;
    labels.push(comm.last_coll_algorithm().to_string());
    out.extend(&all);
    let r = next_round();
    let req = comm.iallgather_into(&payload(me, r, bytes))?;
    finish(comm, req, &mut out)?;
    let r = next_round();
    let req = comm.allgather_init(&payload(me, r, bytes))?;
    restart(comm, req, Some(&payload(me, r + 100, bytes)), &mut out)?;

    // Alltoall: `bytes` per peer.
    let r = next_round();
    let mut recv = vec![0u8; n * bytes];
    comm.alltoall(&payload(me, r, n * bytes), &mut recv)?;
    labels.push(comm.last_coll_algorithm().to_string());
    out.extend(&recv);
    let r = next_round();
    let req = comm.ialltoall(&payload(me, r, n * bytes))?;
    finish(comm, req, &mut out)?;
    let r = next_round();
    let req = comm.alltoall_init(&payload(me, r, n * bytes))?;
    restart(comm, req, Some(&payload(me, r + 100, n * bytes)), &mut out)?;

    Ok((out, labels))
}

#[test]
fn inline_and_slot_payloads_match_the_ring_path_byte_for_byte() {
    for n in [2usize, 3, 5, 8] {
        let run = |tuning: CollTuning| {
            Universe::run(config(n, matrix_hosts(), tuning), |world: &mut Comm| {
                // A duplicate: the world communicator's blocking barrier is
                // the transport's own.
                let mut comm = world.comm_dup()?;
                SIZES
                    .iter()
                    .map(|&bytes| drive(&mut comm, bytes))
                    .collect::<cmpi::mpi::Result<Vec<_>>>()
            })
            .unwrap_or_else(|e| panic!("n={n}: {e}"))
        };
        let (shm, ring) = (run(force_shm()), run(force_ring()));
        for (rank, ((shm, _), (ring, _))) in shm.iter().zip(&ring).enumerate() {
            for (i, &bytes) in SIZES.iter().enumerate() {
                let ((got, labels), (want, ring_labels)) = (&shm[i], &ring[i]);
                assert_eq!(got, want, "n={n} rank {rank} at {bytes} B");
                assert!(!want.is_empty() || bytes == 0);
                // (A zero-byte alltoall is a no-op before any path is chosen.)
                assert!(
                    labels
                        .iter()
                        .all(|l| l.contains("/shm") || (bytes == 0 && l == "alltoall/local")),
                    "n={n} {bytes} B ran {labels:?}"
                );
                assert!(
                    ring_labels.iter().all(|l| !l.contains("/shm")),
                    "n={n} {bytes} B ran {ring_labels:?} on the forced ring"
                );
            }
        }
    }
}

#[test]
fn one_phase_allreduce_gives_every_rank_the_same_bits() {
    // Values whose sum depends on the order of the additions: every rank
    // folds in group order, so all of them must still agree to the last bit.
    let results = Universe::run(
        config(5, matrix_hosts(), force_shm()),
        |world: &mut Comm| {
            let mut comm = world.comm_dup()?;
            let me = comm.rank() as f64;
            let mut v = [1e16 * (me - 2.0), 0.1 * (me + 1.0), 1.0 / (me + 3.0)];
            comm.allreduce(&mut v, ReduceOp::Sum)?;
            assert_eq!(comm.last_coll_algorithm(), "allreduce/shm");
            Ok(v.map(f64::to_bits))
        },
    )
    .unwrap();
    for (bits, _) in &results {
        assert_eq!(bits, &results[0].0);
    }
}

#[test]
fn a_straggler_holds_slots_until_its_completion_line() {
    // More back-to-back broadcasts than a writer has slots, one rank reading
    // late: the root must wait for the straggler's completion line before it
    // reuses a slot (or a flag line carrying an inline payload), never
    // overwrite. First a fixed root, which can run a full window ahead, then
    // rotating roots.
    const ROUNDS: usize = 3 * (DP_SLOTS + 2);
    for bytes in [48usize, 1024] {
        let results = Universe::run(config(5, matrix_hosts(), force_shm()), move |world| {
            let mut comm = world.comm_dup()?;
            let (n, me) = (comm.size(), comm.rank());
            let before = comm.data_plane_stats();
            for round in 0..ROUNDS {
                let root = if round < DP_SLOTS + 2 { 0 } else { round % n };
                if me == n - 1 && round % (DP_SLOTS + 2) == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                let mut buf = payload(root, round, bytes);
                if me != root {
                    buf.fill(0);
                }
                comm.bcast_into(root, &mut buf)?;
                assert_eq!(
                    buf,
                    payload(root, round, bytes),
                    "round {round} on rank {me}"
                );
            }
            let after = comm.data_plane_stats();
            Ok(after.notify_waits - before.notify_waits)
        })
        .unwrap();
        // Rank 0 exposed DP_SLOTS + 2 times in a row: it had to consult the
        // readers' completion lines at least once.
        assert!(results[0].0 > 0, "{bytes} B: root never loaded a line");
    }
}

#[test]
fn four_outstanding_collectives_complete_in_reverse_order() {
    let results = Universe::run(
        config(5, matrix_hosts(), force_shm()),
        |world: &mut Comm| {
            let mut comm = world.comm_dup()?;
            let (n, me) = (comm.size(), comm.rank());
            let mut out = Vec::new();
            // Twice over, so the second window reuses every slot of the first.
            for window in 0..2 {
                let r = 10 * window;
                let mut reqs = [
                    comm.iallgather_into(&payload(me, r, 8))?,
                    comm.iallreduce(&payload(me, r + 1, 48), ReduceOp::Sum)?,
                    comm.ibcast_into(3, &payload(3, r + 2, 64))?,
                    comm.ialltoall(&payload(me, r + 3, n * 8))?,
                ];
                assert_eq!(reqs.len(), DP_SLOTS);
                let mut results = vec![Vec::new(); DP_SLOTS];
                for i in (0..DP_SLOTS).rev() {
                    comm.wait(&mut reqs[i])?;
                    results[i] = reqs[i].take_values::<u8>()?;
                }
                let gathered: Vec<u8> = (0..n).flat_map(|s| payload(s, r, 8)).collect();
                assert_eq!(results[0], gathered);
                let summed: Vec<u8> = (0..48)
                    .map(|i| (0..n).fold(0u8, |a, s| a.wrapping_add(byte(s, r + 1, i))))
                    .collect();
                assert_eq!(results[1], summed);
                assert_eq!(results[2], payload(3, r + 2, 64));
                let exchanged: Vec<u8> = (0..n)
                    .flat_map(|s| (0..8).map(move |i| byte(s, r + 3, me * 8 + i)))
                    .collect();
                assert_eq!(results[3], exchanged);
                out.extend(results.concat());
            }
            Ok(out.len())
        },
    )
    .unwrap();
    assert!(results.iter().all(|(len, _)| *len > 0));
}

/// Poll `req` until it completes (every idle `test` also drives the rank's
/// other started operations).
fn test_until_done(comm: &mut Comm, req: &mut Request) -> cmpi::mpi::Result<()> {
    while comm.test(req)?.is_none() {
        std::thread::yield_now();
    }
    Ok(())
}

#[test]
fn finishing_a_later_collective_does_not_report_an_earlier_one_done() {
    // Broadcast #4 (from rank 1) completes before broadcast #0 (from rank 0,
    // same slot) is waited on, and #8 reuses the slot after both: each comes
    // back byte-correct. That a reader's completion line for #4 does not
    // vouch for #0 while #0 is unread is the transport's prefix rule,
    // checked where it lives:
    // `transport::cxl::tests::a_completion_line_covers_only_the_contiguous_prefix_of_what_was_read`.
    assert_eq!(DP_SLOTS, 4, "the script below counts slots");
    let config = config(3, matrix_hosts(), force_shm()).with_progress_mode(ProgressMode::Polling);
    Universe::run(config, |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        let mut b0 = comm.ibcast_into(0, &payload(0, 0, 8))?; // #0
        for _ in 1..DP_SLOTS {
            comm.barrier()?; // #1..#3 hold nothing
        }
        let mut b4 = comm.ibcast_into(1, &payload(1, 4, 8))?;
        test_until_done(&mut comm, &mut b4)?;
        assert_eq!(b4.take_values::<u8>()?, payload(1, 4, 8));
        for _ in 1..DP_SLOTS {
            comm.barrier()?; // #5..#7
        }
        let mut b8 = comm.ibcast_into(1, &payload(1, 8, 8))?;
        comm.wait(&mut b0)?;
        assert_eq!(b0.take_values::<u8>()?, payload(0, 0, 8));
        comm.wait(&mut b8)?;
        assert_eq!(b8.take_values::<u8>()?, payload(1, 8, 8));
        Ok(())
    })
    .unwrap();
}

/// What one rank of [`after_a_stragglers_flag`] saw.
struct AfterStraggler {
    /// How long after the straggler's flag went up the rank's clock stopped.
    after: f64,
    /// Its data-plane counters.
    stats: DataPlaneStats,
    /// What dropping the communicator then added to its clock.
    drop_ns: f64,
    /// The completion lines it stored `(joined, alone)`, the drop's included.
    completions: (u64, u64),
}

/// One allgather of `block` bytes per rank among 8 ranks on 2 hosts that all
/// leave the same virtual instant, rank 5 a virtual millisecond (and 20 ms of
/// wall time) late, with the ring path's bytes, then the communicator
/// dropped: per rank, what it saw.
fn after_a_stragglers_flag(block: usize) -> Vec<AfterStraggler> {
    const START_NS: f64 = 1e7;
    const LATE_NS: f64 = 1e6;
    let run = move |tuning: CollTuning| {
        Universe::run(config(8, 2, tuning), move |world: &mut Comm| {
            let mut comm = world.comm_dup()?;
            let me = comm.rank();
            world.advance_clock(START_NS - world.clock_ns());
            if me == 5 {
                std::thread::sleep(Duration::from_millis(20));
                world.advance_clock(LATE_NS);
            }
            let mut all = vec![0u8; 8 * block];
            comm.allgather_into(&payload(me, 0, block), &mut all)?;
            let end = world.clock_ns();
            drop(comm);
            let lines = world.completion_stats();
            let completions = (lines.completions_joined, lines.completions_alone);
            Ok((all, end, world.clock_ns() - end, completions))
        })
        .unwrap()
    };
    let (shm, ring) = (run(force_shm()), run(force_ring()));
    // (A block of a line rides in the flag line; the other sizes here go
    // behind it.)
    let streamed = if block <= 48 { 0 } else { block };
    let stamp = START_NS + LATE_NS + dp_cost(4).publish(streamed, true);
    shm.iter()
        .zip(&ring)
        .map(
            |(((bytes, end, drop_ns, completions), report), ((ring_bytes, ..), _))| {
                assert!(bytes == ring_bytes);
                AfterStraggler {
                    after: end - stamp,
                    stats: report.data_plane,
                    drop_ns: *drop_ns,
                    completions: *completions,
                }
            },
        )
        .collect()
}

/// Every rank's completion line of the straggler's allgather was still held
/// back when its clock stopped: dropping the communicator stored it, by
/// itself, as one line.
fn assert_dropped_line(seen: &AfterStraggler, rank: usize) {
    let line = dp_cost(4).line();
    assert!(
        (seen.drop_ns - line).abs() < 1e-3,
        "rank {rank}: the drop took {} ns, a line is {line}",
        seen.drop_ns
    );
    assert_eq!(seen.completions, (0, 1), "rank {rank}");
}

/// The flag lines rank `me` of 8 spans when it reads every peer: ranks 0 and
/// 7 seven, the others — their own in the middle — eight.
fn span_of(me: usize) -> usize {
    if me == 0 || me == 7 {
        7
    } else {
        8
    }
}

#[test]
fn a_straggler_costs_its_readers_one_row_not_a_line_per_peer() {
    // An 8 B allgather. Whoever waits for all of a row is released by its
    // last flag: every rank must end at the straggler's stamp plus one row —
    // where a load per peer ended it seven lines later. Its completion line
    // is held back for its next exposure; the drop of the communicator stores
    // it instead, a line.
    let dp = dp_cost(4);
    for (rank, seen) in after_a_stragglers_flag(8).iter().enumerate() {
        let (after, planned) = (seen.after, dp.row(span_of(rank)));
        assert!(
            (after - planned).abs() < 1e-3,
            "rank {rank} ended {after} ns after the straggler's stamp, a row is {planned}"
        );
        assert_eq!(seen.stats.row_reads, 1, "rank {rank}");
        assert_dropped_line(seen, rank);
    }
}

#[test]
fn two_outstanding_rows_are_polled_in_turn_and_charged_once_each() {
    // An iallgather and an iallreduce, both riding in flag lines, polled
    // alternately — the later one first — while rank 0, a line of both rows
    // on every other rank, starts late: the two executions' failed polls
    // interleave on one transport, and each row is still read into the clock
    // exactly once, with its own collective's payloads.
    let config = config(5, matrix_hosts(), force_shm()).with_progress_mode(ProgressMode::Polling);
    let results = Universe::run(config, |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        let (n, me) = (comm.size(), comm.rank());
        let before = comm.data_plane_stats();
        if me == 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
        let mut gather = comm.iallgather_into(&payload(me, 1, 8))?;
        let mut reduce = comm.iallreduce(&payload(me, 2, 8), ReduceOp::Sum)?;
        let mut gather_done = false;
        while comm.test(&mut reduce)?.is_none() {
            gather_done = gather_done || comm.test(&mut gather)?.is_some();
            std::thread::yield_now();
        }
        let summed: Vec<u8> = (0..8)
            .map(|i| (0..n).fold(0u8, |a, s| a.wrapping_add(byte(s, 2, i))))
            .collect();
        assert_eq!(reduce.take_values::<u8>()?, summed);
        if !gather_done {
            comm.wait(&mut gather)?;
        }
        let gathered: Vec<u8> = (0..n).flat_map(|s| payload(s, 1, 8)).collect();
        assert_eq!(gather.take_values::<u8>()?, gathered);
        let after = comm.data_plane_stats();
        Ok((
            after.row_reads - before.row_reads,
            after.pull_ops - before.pull_ops,
        ))
    })
    .unwrap();
    for (rank, (moved, _)) in results.iter().enumerate() {
        assert_eq!(*moved, (2, 2 * 4), "rank {rank}");
    }
}

#[test]
fn a_straggler_costs_its_readers_one_row_and_one_gather() {
    // The data-slot form of the straggler test: 3 KiB blocks sit in data
    // slots behind flag lines, and a reader that has seen six flags up still
    // reads nothing until the seventh is. What all-or-nothing costs under
    // skew is therefore an identity, not a surprise: every rank ends at the
    // straggler's stamp plus the row and the whole gathered read; its
    // completion line, held back, is stored when the communicator is
    // dropped. (Blocks this size take the direct shape; from 3946 B the
    // host-sliced one is cheaper, and it runs in segments wherever it does
    // not fit a slot.)
    const BLOCK: usize = 3 * 1024;
    let dp = dp_cost(4);
    for (rank, seen) in after_a_stragglers_flag(BLOCK).iter().enumerate() {
        let span = span_of(rank);
        let (after, stats) = (seen.after, &seen.stats);
        let planned = dp.row(span) + dp.gather(span, peers_pieces(rank, BLOCK));
        assert!(
            (after - planned).abs() < 1e-3,
            "rank {rank} ended {after} ns after the straggler's stamp, row + gather are {planned}"
        );
        assert_eq!((stats.row_reads, stats.pull_ops), (1, 7), "rank {rank}");
        assert_eq!(stats.bytes_pulled, 7 * BLOCK as u64, "rank {rank}");
        assert_dropped_line(seen, rank);
    }
}

#[test]
fn two_outstanding_slot_runs_are_polled_in_turn_and_charged_once_each() {
    // An iallgather and an ialltoall — blocks and images in data slots:
    // stamped lines at 1 KiB, behind flag lines at 8 KiB — polled
    // alternately, the later one first, while rank 0 starts a virtual
    // millisecond (and 20 ms of polls) late. Each run is read into the clock
    // once, a failed poll charges nothing, and each run reads its own
    // collective's slots; only the runs behind flag lines have rows.
    const START_NS: f64 = 1e7;
    const LATE_NS: f64 = 1e6;
    for (block, rows) in [(1024, 0), (8 * 1024, 2)] {
        let config =
            config(5, matrix_hosts(), force_shm()).with_progress_mode(ProgressMode::Polling);
        let results = Universe::run(config, move |world: &mut Comm| {
            let mut comm = world.comm_dup()?;
            let (n, me) = (comm.size(), comm.rank());
            world.advance_clock(START_NS - world.clock_ns());
            let before = comm.data_plane_stats();
            if me == 0 {
                std::thread::sleep(Duration::from_millis(20));
                world.advance_clock(LATE_NS);
            }
            let mut gather = comm.iallgather_into(&payload(me, 1, block))?;
            let mut exchange = comm.ialltoall(&payload(me, 2, n * block))?;
            let mut gather_done = false;
            while comm.test(&mut exchange)?.is_none() {
                gather_done = gather_done || comm.test(&mut gather)?.is_some();
                std::thread::yield_now();
            }
            let exchanged: Vec<u8> = (0..n)
                .flat_map(|s| (0..block).map(move |i| byte(s, 2, me * block + i)))
                .collect();
            assert!(exchange.take_values::<u8>()? == exchanged);
            if !gather_done {
                comm.wait(&mut gather)?;
            }
            let gathered: Vec<u8> = (0..n).flat_map(|s| payload(s, 1, block)).collect();
            assert!(gather.take_values::<u8>()? == gathered);
            let after = comm.data_plane_stats();
            Ok((
                after.row_reads - before.row_reads,
                after.pull_ops - before.pull_ops,
                after.bytes_pulled - before.bytes_pulled,
                world.clock_ns() - START_NS,
            ))
        })
        .unwrap();
        for (rank, ((row_reads, pulls, bytes, elapsed), _)) in results.iter().enumerate() {
            assert_eq!(
                (*row_reads, *pulls),
                (rows, 2 * 4),
                "{block} B, rank {rank}"
            );
            assert_eq!(*bytes, 2 * 4 * block as u64, "{block} B, rank {rank}");
            // Two publishes, two runs and two lines come to under 60 µs; one
            // charged per poll, to 20 ms of them.
            assert!(
                *elapsed < LATE_NS + 60_000.0,
                "{block} B, rank {rank} was charged {elapsed} ns"
            );
        }
    }
}

/// A scripted mix of small collectives on a duplicate communicator; what
/// every rank's virtual clock advanced by. All ranks set out from the same
/// virtual instant: creating the duplicate agrees on a context id over
/// point-to-point messages, which leaves the ranks' clocks skewed against
/// each other by an amount that is not repeatable.
fn scripted_clocks(n: usize, hosts: usize) -> Vec<f64> {
    const START_NS: f64 = 1e7;
    Universe::run(config(n, hosts, force_shm()), |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        world.advance_clock(START_NS - world.clock_ns());
        let start = world.clock_ns();
        let (n, me) = (comm.size(), comm.rank());
        let mut persistent = comm.allreduce_init(&[me as f64; 128], ReduceOp::Sum)?;
        for round in 0..3 * DP_SLOTS + 1 {
            comm.barrier()?;
            let mut small = payload(round % n, round, 8);
            comm.bcast_into(round % n, &mut small)?;
            let mut v = [me as f64 + round as f64];
            comm.allreduce(&mut v, ReduceOp::Sum)?;
            let mut all = vec![0u8; n * 48];
            comm.allgather_into(&payload(me, round, 48), &mut all)?;
            let mut recv = vec![0u8; n * 8];
            comm.alltoall(&payload(me, round, n * 8), &mut recv)?;
            let mut kib = vec![me as u64; 128];
            comm.allreduce(&mut kib, ReduceOp::Max)?;
            comm.start(&mut persistent)?;
            comm.wait(&mut persistent)?;
        }
        persistent.release()?;
        Ok(world.clock_ns() - start)
    })
    .unwrap()
    .into_iter()
    .map(|(elapsed, _)| elapsed)
    .collect()
}

#[test]
fn virtual_clocks_repeat_exactly() {
    let first = scripted_clocks(8, 2);
    for run in 1..4 {
        let again = scripted_clocks(8, 2);
        // To a millionth of a nanosecond: the two clock readings being
        // subtracted sit at a run-dependent offset.
        assert!(
            first.iter().zip(&again).all(|(a, b)| (a - b).abs() < 1e-6),
            "run {run} diverged: {first:?} vs {again:?}"
        );
    }
}

/// Collectives timed by the three cost identities below, and how many of
/// them share one completion sweep.
const COLLS: u64 = 4 * DP_SLOTS as u64;
const SWEEPS: u64 = COLLS / DP_SLOTS as u64;

/// What one call does on every rank: the exposures it publishes, how many
/// of them as stamped lines, the flag lines and stamped exposures its rows
/// acquire (`DataPlaneStats::pull_ops`), rank by rank, and the rows ahead of
/// its runs.
#[derive(Debug, Clone, Copy)]
struct PerCall {
    exposes: u64,
    stamped: u64,
    pulls: [u64; 8],
    rows: u64,
}

/// A flat collective's call: one exposure, `stamped` of them stamped lines,
/// the seven peers' read behind `rows` rows — one, or none when they are
/// stamped lines in data slots.
const fn flat(rows: u64, stamped: u64) -> PerCall {
    PerCall {
        exposes: 1,
        stamped,
        pulls: [7; 8],
        rows,
    }
}

/// Check `COLLS` steady-state calls of `step` among 8 ranks on 2 hosts under
/// `tuning` against `per_call` virtual nanoseconds plus `sweeps` completion
/// sweeps, as an equality on every rank: a line that goes uncharged fails
/// it, and so does a row charged per poll. Every rank's data-plane counters
/// move by `counts` per call.
fn assert_costs(
    what: &str,
    tuning: CollTuning,
    step: impl Fn(&mut Comm) -> cmpi::mpi::Result<()> + Send + Sync + 'static,
    per_call: f64,
    sweeps: u64,
    counts: PerCall,
) {
    // A rank in the middle of the group spans the whole row of eight lines,
    // and the ranks at its ends, whose own spans are a line shorter, wait for
    // it in every call.
    let planned = COLLS as f64 * per_call + sweeps as f64 * dp_cost(4).row(8);
    check_steady(what, tuning, step, planned, sweeps, counts, None);
}

/// [`assert_costs`] for a collective that reads and exposes stamped lines
/// only: the completion line one call's last read leaves held back rides
/// the next call's exposure, which then costs one line more in its store
/// stream and nothing else — a call `joined` virtual nanoseconds. The
/// `SWEEPS` calls that find their slot held store the line by itself before
/// they sweep, and expose alone: `alone` nanoseconds, plus the row of the
/// sweep. Every rank stores one joined line a call and one lone line a sweep.
fn assert_joined_costs(
    what: &str,
    step: impl Fn(&mut Comm) -> cmpi::mpi::Result<()> + Send + Sync + 'static,
    joined: f64,
    alone: f64,
    counts: PerCall,
) {
    let row = dp_cost(4).row(8);
    let planned = (COLLS - SWEEPS) as f64 * joined + SWEEPS as f64 * (alone + row);
    let completions = Some((COLLS - SWEEPS, SWEEPS));
    check_steady(
        what,
        force_shm(),
        step,
        planned,
        SWEEPS,
        counts,
        completions,
    );
}

/// The checks of [`assert_costs`] against a `planned` total, and, if given,
/// the completion lines every rank stored `(joined, alone)`.
fn check_steady(
    what: &str,
    tuning: CollTuning,
    step: impl Fn(&mut Comm) -> cmpi::mpi::Result<()> + Send + Sync + 'static,
    planned: f64,
    sweeps: u64,
    counts: PerCall,
    completions: Option<(u64, u64)>,
) {
    let PerCall {
        exposes,
        stamped,
        pulls,
        rows,
    } = counts;
    let results = steady_completions(config(8, 2, tuning), COLLS as usize, step);
    for (rank, (before, after, virt_ns, stored)) in results.iter().enumerate() {
        let moved = |counter: fn(&DataPlaneStats) -> u64| counter(after) - counter(before);
        assert_eq!(
            moved(|s| s.expose_ops),
            exposes * COLLS,
            "{what}, rank {rank}"
        );
        assert_eq!(
            moved(|s| s.stamped_exposes),
            stamped * COLLS,
            "{what}, rank {rank}"
        );
        assert_eq!(
            moved(|s| s.pull_ops),
            pulls[rank] * COLLS,
            "{what}, rank {rank}"
        );
        assert_eq!(moved(|s| s.notify_waits), 7 * sweeps, "{what}, rank {rank}");
        // The runs' rows, and one per sweep.
        assert_eq!(
            moved(|s| s.row_reads),
            rows * COLLS + sweeps,
            "{what}, rank {rank}"
        );
        if let Some(completions) = completions {
            assert_eq!(*stored, completions, "{what}, rank {rank}: (joined, alone)");
        }
        assert!(
            (virt_ns - planned).abs() <= 0.002 * planned,
            "{what}, rank {rank}: {virt_ns} ns, planned {planned} ns"
        );
    }
}

#[test]
fn a_barrier_costs_one_store_and_one_row() {
    // Nothing is read out of a slot, so nothing is held and nobody sweeps.
    let dp = dp_cost(4);
    assert_costs(
        "barrier",
        force_shm(),
        Comm::barrier,
        dp.line() + dp.row(8),
        0,
        flat(1, 0),
    );
}

#[test]
fn an_allgather_costs_its_budget_of_round_trips() {
    // 8 B allgather among 8 ranks: one flag line stored — the exposure's one
    // stamped line — with the completion line the last call held back in the
    // same store stream, two lines; the seven peers' lines, payloads and all,
    // acquired in one row. Per DP_SLOTS calls, one stores its completion line
    // by itself, then the flag line alone, and reads one more row, of
    // completion lines.
    let dp = dp_cost(4);
    let step = |comm: &mut Comm| comm.allgather_into(&[7u8; 8], &mut [0u8; 64]);
    let joined = publish_joined(&dp, stamped(8)) + dp.row(8);
    let alone = dp.line() + dp.line() + dp.row(8);
    assert_joined_costs("8 B allgather", step, joined, alone, flat(1, 1));
}

#[test]
fn a_small_allreduce_costs_what_the_allgather_does() {
    // One expose carrying the last call's completion line, one row, seven
    // folds out of it; and one lone completion line per sweep.
    let dp = dp_cost(4);
    let step = |comm: &mut Comm| comm.allreduce(&mut [3u64], ReduceOp::Sum);
    let joined = publish_joined(&dp, stamped(8)) + dp.row(8);
    let alone = dp.line() + dp.line() + dp.row(8);
    assert_joined_costs("8 B allreduce", step, joined, alone, flat(1, 1));
}

#[test]
fn a_56_byte_allgather_costs_a_stamped_publish_and_one_gathered_read() {
    // Seven u64 each among 8 ranks: 56 B is past the flag line's 48, so each
    // block is two stamped lines at the head of its writer's slot — one store
    // stream of 128 B, no flag, and the last call's completion line in it —
    // and the seven peers' blocks are one gathered read, three out of the
    // shared cache, four off the device, with no row ahead of it. A sweeping
    // call stores its completion line by itself first.
    let dp = dp_cost(4);
    let step = |comm: &mut Comm| comm.allgather_into(&[7u64; 7], &mut [0u64; 56]);
    let lines = stamped(56);
    let reads = dp.gather(0, peers_pieces(3, lines));
    let joined = publish_joined(&dp, lines) + reads;
    let alone = dp.line() + dp.publish(lines, false) + reads;
    assert_joined_costs("56 B allgather", step, joined, alone, flat(0, 1));
}

#[test]
fn an_alltoall_costs_a_stamped_publish_and_one_gathered_read() {
    // 8 B blocks among 8 ranks: the 64 B image is two stamped lines, so it is
    // published with one store stream — the last call's completion line in
    // it — and no flag line, and read with one gathered read of each peer's
    // first line — and, for the ranks whose block lies past the first line's
    // 48 B, its second: those set the pace. A publish, a flag line, a row and
    // a gathered read behind it it is not.
    let dp = dp_cost(4);
    let step = |comm: &mut Comm| comm.alltoall(&[9u8; 64], &mut [0u8; 64]);
    let reads = dp.gather(0, peers_pieces(7, stamped_read(7 * 8, 8)));
    let joined = publish_joined(&dp, stamped(64)) + reads;
    let alone = dp.line() + dp.publish(stamped(64), false) + reads;
    assert_joined_costs("8 B alltoall", step, joined, alone, flat(0, 1));
}

#[test]
#[allow(non_snake_case)]
fn a_1KiB_allreduce_costs_a_stamped_publish_and_one_gathered_read() {
    // 128 u64: every rank exposes its vector in nineteen stamped lines — and
    // the last call's completion line — and folds its seven peers' whole
    // vectors, staged one at a time, out of one gathered read of their lines:
    // no flag line, no row.
    let dp = dp_cost(4);
    let step = |comm: &mut Comm| comm.allreduce(&mut [5u64; 128], ReduceOp::Sum);
    let lines = stamped(1024);
    let reads = dp.gather(0, peers_pieces(3, lines));
    let joined = publish_joined(&dp, lines) + reads;
    let alone = dp.line() + dp.publish(lines, false) + reads;
    assert_joined_costs("1 KiB allreduce", step, joined, alone, flat(0, 1));
}

/// The default window: 512 KiB slots, room for the host-sliced shapes of
/// the 8-rank mix's payloads.
fn roomy() -> CollTuning {
    CollTuning {
        hierarchy: cmpi::mpi::HierarchyMode::Off,
        ..CollTuning::default()
    }
}

#[test]
#[allow(non_snake_case)]
fn a_64KiB_allgather_crosses_each_host_once() {
    // Host-sliced, 8 ranks blocked on 2 hosts, in the two segments of 32 KiB
    // of every block the walk cuts it into — each a window round of its own,
    // so a call takes two sequence numbers and every other one sweeps. In
    // each, every rank publishes its block's half, then reads its three
    // host-mates' out of the shared cache and the one block of the other
    // host it relays off the device — one run, whose row spans from the
    // first to the last member it reads (every member raises its phase-0
    // line); the slowest, a host's last member or the other host's first,
    // spans all eight. It relays that block to its host-mates, and reads
    // their three relays in a run behind a row of their lines, four for a
    // member in the middle. Then its completion line. A row acquires the
    // lines of the members it spans and does not read too: from the four a
    // host's first member reads to the seven the last one's row spans.
    const BLOCK: usize = 64 * 1024;
    const SEGMENT: usize = BLOCK / 2;
    let dp = dp_cost(4);
    let step = |comm: &mut Comm| comm.allgather_into(&[1u8; BLOCK], &mut vec![0u8; 8 * BLOCK]);
    let phase0 = [(SEGMENT, true); 3].into_iter().chain([(SEGMENT, false)]);
    let phase1 = [(SEGMENT, true); 3];
    let per_segment = dp.publish(SEGMENT, true)
        + dp.row(8)
        + dp.gather(8, phase0)
        + dp.publish(SEGMENT, true)
        + dp.row(4)
        + dp.gather(4, phase1)
        + dp.line();
    let counts = PerCall {
        exposes: 4,
        stamped: 0,
        pulls: [14, 16, 18, 20, 20, 18, 16, 14],
        rows: 4,
    };
    let (per_call, sweeps) = (2.0 * per_segment, 2 * SWEEPS);
    assert_costs("64 KiB allgather", roomy(), step, per_call, sweeps, counts);
}

#[test]
#[allow(non_snake_case)]
fn a_256KiB_allreduce_folds_one_block_off_the_other_host() {
    // Host-sliced, 8 ranks blocked on 2 hosts, 64 KiB blocks: every rank
    // publishes its vector and folds its block of its three host-mates'
    // out of the shared cache, behind a row of their lines (four for a
    // member in the middle, whose pace the others keep); publishes its
    // host's partial of the block and takes the other host's partial of it
    // off the device, the row one line; publishes the reduced block, and
    // reads its host-mates' three out of the cache. Then its completion
    // line.
    const BLOCK: usize = 64 * 1024;
    let dp = dp_cost(4);
    let step = |comm: &mut Comm| comm.allreduce(&mut vec![3u64; 4 * BLOCK / 8], ReduceOp::Sum);
    let cached = [(BLOCK, true); 3];
    let per_call = dp.publish(4 * BLOCK, true)
        + dp.row(4)
        + dp.gather(4, cached)
        + dp.publish(BLOCK, true)
        + dp.row(1)
        + dp.gather(1, [(BLOCK, false)])
        + dp.publish(BLOCK, true)
        + dp.row(4)
        + dp.gather(4, cached)
        + dp.line();
    let counts = PerCall {
        exposes: 3,
        stamped: 0,
        pulls: [7; 8],
        rows: 3,
    };
    assert_costs("256 KiB allreduce", roomy(), step, per_call, SWEEPS, counts);
}

#[test]
fn an_irregular_exchange_costs_one_stamped_publish_and_one_gathered_read() {
    // 8 ranks on 2 hosts, 512 B to every peer: each segment is ten stamped
    // lines in its reader's region, so per call a rank's clock moves by one
    // store stream of its seven segments' lines — no flag line — and one
    // gathered read of its peers' segments for it (three out of the shared
    // cache, four off the device), no row ahead of it. The completion line a
    // call's reads leave held back rides the next call's store stream, one
    // line more in it; before it reuses a slot, DP_SLOTS calls' worth at a
    // time, a rank stores that line by itself and loads the row of completion
    // lines. The barrier ahead of the timed calls stores the line the untimed
    // ones left, so the first timed call has none to carry. Nothing per
    // message: there are none.
    const SEG: usize = 512;
    let dp = dp_cost(4);
    let lines = stamped(SEG);
    let plain = dp.publish(7 * lines, false) + dp.gather(0, peers_pieces(3, lines));
    let joined_line = publish_joined(&dp, 7 * lines) - dp.publish(7 * lines, false);
    let results = Universe::run(config(8, 2, force_shm()), move |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        let n = comm.size();
        let (send, counts) = (vec![5u8; n * SEG], vec![SEG; n]);
        for _ in 0..DP_SLOTS {
            comm.alltoallv(&send, &counts, &counts)?;
        }
        assert_eq!(comm.last_coll_algorithm(), "alltoallv/shm");
        comm.barrier()?;
        let (before, lines_before, sent, start) = (
            comm.data_plane_stats(),
            comm.completion_stats(),
            comm.stats().msgs_sent,
            world.clock_ns(),
        );
        for _ in 0..COLLS {
            comm.alltoallv(&send, &counts, &counts)?;
        }
        let after = comm.data_plane_stats();
        assert_eq!(comm.stats().msgs_sent, sent);
        assert_eq!(after.expose_ops - before.expose_ops, COLLS);
        assert_eq!(after.stamped_exposes - before.stamped_exposes, COLLS);
        assert_eq!(
            after.bytes_exposed - before.bytes_exposed,
            COLLS * 7 * SEG as u64
        );
        assert_eq!(after.pull_ops - before.pull_ops, 7 * COLLS);
        assert_eq!(
            after.bytes_pulled - before.bytes_pulled,
            COLLS * 7 * SEG as u64
        );
        // No run has a row: every row is a sweep's, and every sweep stores
        // a lone completion line; every other call but the first carries one.
        let sweeps = after.row_reads - before.row_reads;
        assert_eq!(7 * sweeps, after.notify_waits - before.notify_waits);
        let lines_after = comm.completion_stats();
        assert_eq!(
            (
                lines_after.completions_joined - lines_before.completions_joined,
                lines_after.completions_alone - lines_before.completions_alone,
            ),
            (COLLS - 1 - sweeps, sweeps)
        );
        Ok((sweeps, world.clock_ns() - start))
    })
    .unwrap();
    for (rank, ((sweeps, virt_ns), _)) in results.iter().enumerate() {
        let joined = (COLLS - 1 - sweeps) as f64;
        let planned =
            COLLS as f64 * plain + joined * joined_line + *sweeps as f64 * (dp.line() + dp.row(8));
        assert!(
            (virt_ns - planned).abs() <= 0.002 * planned,
            "rank {rank}: {virt_ns} ns, planned {planned} ns"
        );
    }
}

/// A sample sort's communication — splitter samples, the counts, the keys,
/// a certificate, the bucket bounds — with a different key distribution every
/// round; every rank's clock at the end, all having set out from the same
/// virtual instant (see [`scripted_clocks`]).
fn sort_shaped_clocks() -> Vec<u64> {
    const START_NS: f64 = 1e7;
    Universe::run(config(8, 2, force_shm()), |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        world.advance_clock(START_NS - world.clock_ns());
        let (n, me) = (comm.size(), comm.rank());
        for round in 0..2 * DP_SLOTS + 1 {
            let mut samples = vec![0u64; n * (n - 1)];
            comm.allgather_into(&vec![me as u64; n - 1], &mut samples)?;
            let to = |src: usize, dst: usize| 40 + (7 * src + 3 * dst + 5 * round) % 90;
            let send_counts: Vec<usize> = (0..n).map(|d| to(me, d)).collect();
            let counts: Vec<u64> = send_counts.iter().map(|&c| c as u64).collect();
            let mut recv_counts = vec![0u64; n];
            comm.alltoall(&counts, &mut recv_counts)?;
            let recv_counts: Vec<usize> = recv_counts.iter().map(|&c| c as usize).collect();
            let keys = vec![me as u64; send_counts.iter().sum()];
            let mine = comm.alltoallv(&keys, &send_counts, &recv_counts)?;
            assert_eq!(comm.last_coll_algorithm(), "alltoallv/shm");
            let mut cert = [mine.len() as u64, keys.len() as u64];
            comm.allreduce(&mut cert, ReduceOp::Sum)?;
            assert_eq!(cert[0], cert[1]);
            let mut bounds = vec![0u64; 2 * n];
            comm.allgather_into(&[mine[0], mine[mine.len() - 1]], &mut bounds)?;
        }
        Ok(world.clock_ns().to_bits())
    })
    .unwrap()
    .into_iter()
    .map(|(clock, _)| clock)
    .collect()
}

#[test]
fn a_sort_shaped_script_ends_on_identical_clocks_in_every_launch() {
    // With the keys travelling as messages the order of their arrival decided
    // what each rank's clock merged, and no two launches agreed; pulled out of
    // the window, every stamp a rank merges is one it asked for by name.
    let first = sort_shaped_clocks();
    for launch in 1..10 {
        assert_eq!(sort_shaped_clocks(), first, "launch {launch}");
    }
}

#[test]
fn ranks_hinting_different_crowds_still_build_one_plan() {
    // Half the ranks expect a crowd of one pair, half of 64: that moves what
    // each is charged, not what plan it builds. Around the one/two-phase
    // crossover each of the two crowds would price its own shape — the
    // members would expose and read different phases, and wedge.
    const COUNTS: [usize; 5] = [16, 128, 337, 512, 1024];
    let run = |tuning: CollTuning| {
        Universe::run(config(8, 2, tuning), |world: &mut Comm| {
            let mut comm = world.comm_dup()?;
            let me = comm.rank();
            comm.set_concurrency_hint(if me % 2 == 0 { 1 } else { 64 });
            COUNTS
                .iter()
                .map(|&count| {
                    let mut v: Vec<f64> = (0..count).map(|i| (me * count + i) as f64).collect();
                    comm.allreduce(&mut v, ReduceOp::Sum)?;
                    Ok(v)
                })
                .collect::<cmpi::mpi::Result<Vec<_>>>()
        })
        .unwrap()
    };
    let (shm, ring) = (run(force_shm()), run(force_ring()));
    for (rank, ((got, _), (want, _))) in shm.iter().zip(&ring).enumerate() {
        assert_eq!(got, want, "rank {rank}");
    }
}
