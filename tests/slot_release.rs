//! How a writer gets its window slots back. Each exposure's first line says
//! whether its writer had finished reading every earlier collective of the
//! window, and a rank that read it frees the slots that writer was the last
//! reader of: a steady 8 B exchange never reads a row of completion lines
//! and never stores one by itself. Everything else still sweeps the readers'
//! completion lines — a root that reads nothing of its readers, started
//! collectives, a reader left behind — and each of those paths must finish
//! with what the ring computes, in both progress modes.
//!
//! Hosts come from `CMPI_HOSTS` and the window from `CMPI_DATA_PLANE` (a
//! window of the test arena when unset; none under `ring`, where nothing is
//! exposed and every counter below stays at 0).

use std::time::Duration;

use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::{
    CollTuning, Comm, CompletionStats, DataPlaneStats, HierarchyMode, ProgressMode, ReduceOp,
    Request, Result, Universe, UniverseConfig,
};

mod common;
use common::{
    matrix_data_plane, matrix_hosts, with_window_headroom, within_a_minute, TEST_SHM_ARENA_BYTES,
};

/// The window arena of this run: `CMPI_DATA_PLANE`'s, the test arena if
/// unset.
fn arena() -> usize {
    matrix_data_plane().unwrap_or(TEST_SHM_ARENA_BYTES)
}

/// `ranks` ranks on the matrix's hosts, with `arena` bytes of window each.
fn config(ranks: usize, arena: usize, mode: ProgressMode) -> UniverseConfig {
    let tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        shm_arena_bytes: arena,
    };
    with_window_headroom(UniverseConfig::cxl_small(ranks), 64 * 1024 * 1024)
        .with_hosts(matrix_hosts())
        .with_coll_tuning(tuning)
        .with_progress_mode(mode)
}

/// What the calls between two snapshots did to a rank's slots:
/// `(slots freed by exposures, slots freed by sweeps, completion lines
/// stored alone, completion rows read)`.
type Moved = (u64, u64, u64, u64);

fn moved(before: &(CompletionStats, DataPlaneStats), comm: &Comm) -> Moved {
    let (lines, dp) = (comm.completion_stats(), comm.data_plane_stats());
    (
        lines.freed_by_exposures - before.0.freed_by_exposures,
        lines.freed_by_sweeps - before.0.freed_by_sweeps,
        lines.completions_alone - before.0.completions_alone,
        dp.notify_waits - before.1.notify_waits,
    )
}

fn snapshot(comm: &Comm) -> (CompletionStats, DataPlaneStats) {
    (comm.completion_stats(), comm.data_plane_stats())
}

/// One steady small exchange: a call of it on `comm`, checked.
type Exchange = fn(&mut Comm, usize) -> Result<()>;

fn allreduce_8b(comm: &mut Comm, call: usize) -> Result<()> {
    let n = comm.size() as u64;
    let mut v = [call as u64 + comm.rank() as u64];
    comm.allreduce(&mut v, ReduceOp::Sum)?;
    assert_eq!(v, [n * call as u64 + n * (n - 1) / 2]);
    Ok(())
}

fn allgather_8b(comm: &mut Comm, call: usize) -> Result<()> {
    let n = comm.size();
    let mut out = vec![0u64; n];
    comm.allgather_into(&[(call * n + comm.rank()) as u64], &mut out)?;
    assert!(out
        .iter()
        .enumerate()
        .all(|(r, &v)| v == (call * n + r) as u64));
    Ok(())
}

fn alltoall_8b(comm: &mut Comm, call: usize) -> Result<()> {
    let (n, me) = (comm.size(), comm.rank());
    let send: Vec<u8> = (0..n).map(|dst| (call + me * n + dst) as u8).collect();
    let mut recv = vec![0u8; n];
    comm.alltoall(&send, &mut recv)?;
    assert!(recv
        .iter()
        .enumerate()
        .all(|(src, &v)| v == (call + src * n + me) as u8));
    Ok(())
}

#[test]
fn a_steady_small_exchange_frees_its_slots_from_what_it_read() {
    const CALLS: usize = 4 * DP_SLOTS;
    let window = arena() > 0;
    let exchanges: [(&str, Exchange); 3] = [
        ("8 B allreduce", allreduce_8b),
        ("8 B allgather", allgather_8b),
        ("8 B alltoall", alltoall_8b),
    ];
    for ranks in [2, 8] {
        for (what, step) in exchanges {
            let config = config(ranks, arena(), ProgressMode::Polling);
            let runs = Universe::run(config, move |world: &mut Comm| {
                let mut comm = world.comm_dup()?;
                step(&mut comm, 0)?;
                let before = snapshot(&comm);
                for call in 1..=CALLS {
                    step(&mut comm, call)?;
                }
                Ok(moved(&before, &comm))
            })
            .unwrap_or_else(|e| panic!("{what}, {ranks} ranks: {e}"));
            // Past the first call, each frees the slot of the call two back —
            // the exposures read in the call before said their writers were
            // done with it — but the first of them, whose call two back is
            // none.
            let freed = if window { CALLS as u64 - 1 } else { 0 };
            for (rank, (moved, _)) in runs.iter().enumerate() {
                assert_eq!(
                    *moved,
                    (freed, 0, 0, 0),
                    "{what}, {ranks} ranks, rank {rank}"
                );
            }
        }
    }
}

/// A path that still frees slots by the completion sweep.
#[derive(Debug, Clone, Copy)]
enum Fallback {
    /// The root runs `DP_SLOTS + 1` broadcasts: it reads nothing of its
    /// readers, so its last exposure sweeps for the first one's slot.
    RootAhead,
    /// Four persistent allreduces started together, then waited.
    FourPersistent,
    /// Two started collectives, waited for in reverse order.
    ReverseWaits,
    /// Rank 1 shows rank 0 it is done through an exchange, then waits for
    /// rank 2, which is late, to read rank 0's part of it; rank 0 meanwhile
    /// writes rank 1 four more exchanges, the last of them into the slot
    /// rank 1 has still to read.
    Straggler,
}

/// Run `case` on a duplicate of `world`: what every call received, in
/// order, and what the calls did to this rank's slots.
fn run_case(case: Fallback, world: &mut Comm) -> Result<(Vec<u8>, Moved)> {
    let mut comm = world.comm_dup()?;
    let (n, me) = (comm.size(), comm.rank());
    // Warm up: every slot has held an exchange every member read.
    for call in 0..DP_SLOTS {
        allreduce_8b(&mut comm, call)?;
    }
    let before = snapshot(&comm);
    let mut got = Vec::new();
    match case {
        Fallback::RootAhead => {
            for round in 0..=DP_SLOTS {
                let mut buf = [(round * 3 + me) as u8; 8];
                comm.bcast_into(0, &mut buf)?;
                got.extend_from_slice(&buf);
            }
        }
        Fallback::FourPersistent => {
            let mut requests = (0..4)
                .map(|i| comm.allreduce_init(&[(i * 10 + me) as u64; 2], ReduceOp::Sum))
                .collect::<Result<Vec<Request>>>()?;
            for _ in 0..3 {
                comm.startall(&mut requests)?;
                comm.wait_all(&mut requests)?;
                for request in &requests {
                    let out: Vec<u64> = request.read_result()?;
                    got.extend(out.iter().flat_map(|v| v.to_le_bytes()));
                }
            }
            for mut request in requests {
                request.release()?;
            }
        }
        Fallback::ReverseWaits => {
            for round in 0..2 * DP_SLOTS {
                let mut a = comm.iallreduce(&[(round + me) as u64], ReduceOp::Max)?;
                let mut b = comm.iallgather_into(&[(round * n + me) as u8; 8])?;
                comm.wait(&mut b)?;
                comm.wait(&mut a)?;
                got.extend(b.take_values::<u8>()?);
                got.extend(a.take_values::<u64>()?.iter().flat_map(|v| v.to_le_bytes()));
            }
        }
        Fallback::Straggler => {
            // Who sends whom 8 B: 0 ↔ 1 and 2 → 1 first, then 0 → 1 alone,
            // four times.
            let edge = |call: usize, src: usize, dst: usize| match call {
                0 => matches!((src, dst), (0, 1) | (1, 0) | (2, 1)),
                _ => (src, dst) == (0, 1),
            };
            for call in 0..=DP_SLOTS {
                // Time for rank 0 to reach its fifth exposure while rank 1
                // waits: what is checked holds however the ranks interleave,
                // the wait only lets a slot freed too early show.
                if call == 0 && me == 2 {
                    std::thread::sleep(Duration::from_millis(200));
                }
                let count = |src: usize, dst: usize| if edge(call, src, dst) { 8 } else { 0 };
                let send_counts: Vec<usize> = (0..n).map(|dst| count(me, dst)).collect();
                let recv_counts: Vec<usize> = (0..n).map(|src| count(src, me)).collect();
                let send: Vec<u8> = (0..n)
                    .flat_map(|dst| vec![(call * 64 + me * 8 + dst) as u8; send_counts[dst]])
                    .collect();
                got.extend(comm.alltoallv(&send, &send_counts, &recv_counts)?);
            }
        }
    }
    Ok((got, moved(&before, &comm)))
}

/// Run `case` at 3 ranks on the ring and on the window, in Polling and in
/// Thread mode, each under a one-minute guard: every rank receives what the
/// ring gives it. Returns, per mode, what the calls did to each rank's
/// slots on the window.
fn check_against_the_ring(case: Fallback) -> Vec<Vec<Moved>> {
    let oracle = Universe::run(config(3, 0, ProgressMode::Polling), move |world| {
        run_case(case, world)
    })
    .unwrap_or_else(|e| panic!("{case:?} on the ring: {e}"));
    let mut moves = Vec::new();
    for mode in [ProgressMode::Polling, ProgressMode::Thread] {
        let what = format!("{case:?}, {mode:?}");
        let runs = within_a_minute(&what.clone(), move || {
            Universe::run(config(3, arena(), mode), move |world| run_case(case, world))
                .unwrap_or_else(|e| panic!("{what}: {e}"))
        });
        for (rank, (((got, _), _), ((want, _), _))) in runs.iter().zip(&oracle).enumerate() {
            assert_eq!(got, want, "{case:?}, {mode:?}, rank {rank}");
        }
        let moved: Vec<Moved> = runs.iter().map(|((_, moved), _)| *moved).collect();
        if arena() == 0 {
            assert!(
                moved.iter().all(|&m| m == (0, 0, 0, 0)),
                "{case:?}: {moved:?}"
            );
        }
        moves.push(moved);
    }
    moves
}

/// Slots rank 0 freed by sweeps in each mode's run.
fn swept_by_rank_0(moves: &[Vec<Moved>]) -> Vec<u64> {
    moves.iter().map(|ranks| ranks[0].1).collect()
}

#[test]
fn a_root_running_ahead_sweeps_for_its_readers() {
    let moves = check_against_the_ring(Fallback::RootAhead);
    // The root's last broadcast swept for every one before it.
    let swept = if arena() > 0 { DP_SLOTS as u64 } else { 0 };
    assert_eq!(swept_by_rank_0(&moves), [swept; 2]);
}

#[test]
fn four_persistent_collectives_in_flight_compute_what_the_ring_does() {
    check_against_the_ring(Fallback::FourPersistent);
}

#[test]
fn started_collectives_waited_in_reverse_compute_what_the_ring_does() {
    check_against_the_ring(Fallback::ReverseWaits);
}

#[test]
fn a_straggling_reader_keeps_its_slot_until_it_has_read_it() {
    let moves = check_against_the_ring(Fallback::Straggler);
    // Rank 0's fifth exposure swept for the four before it, and for the
    // first, which rank 1 had shown only that it was about to read.
    let swept = if arena() > 0 { DP_SLOTS as u64 } else { 0 };
    assert_eq!(swept_by_rank_0(&moves), [swept; 2]);
}
