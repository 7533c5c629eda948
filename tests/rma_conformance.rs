//! RMA window-API conformance, end-to-end on both transports: fence epochs,
//! PSCW (including multiple origins per target and multiple targets per
//! origin, epochs without a put, groups that change between epochs, and
//! `post`/`start` in either order), passive-target lock/unlock mutual
//! exclusion through the bakery lock (CXL) / lock table (TCP), local window
//! access visibility, error states, and behaviour on split sub-communicators
//! (world-spanning splits keep the full window API; true subsets get the
//! documented `InvalidCommunicator` rejection). On the CXL transport also:
//! what the synchronization calls cost in device lines, and that a script of
//! them ends on the same virtual clocks in every launch.

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::pod::{bytes_to_f64, f64_to_bytes};
use cmpi::mpi::transport::WinId;
use cmpi::mpi::{Comm, MpiError, ReduceOp, Result, Universe, UniverseConfig};

mod common;
use common::{configs, matrix_hosts};

#[test]
fn fence_epochs_order_puts_gets_and_local_access() {
    // Three fence-delimited epochs: everyone puts into its right neighbour,
    // the target reads the value locally, writes a reply locally, and the
    // origin gets it back. Every transition is fence-synchronized, so each
    // epoch must observe all of the previous epoch's RMA.
    for (label, config) in configs(4) {
        Universe::run(config, move |comm: &mut Comm| {
            let n = comm.size();
            let me = comm.rank();
            let right = (me + 1) % n;
            let left = (me + n - 1) % n;
            let win = comm.win_allocate(64)?;

            // Epoch 1: put my rank stamp into my right neighbour's window.
            comm.win_fence(win)?;
            comm.put(win, right, 0, &[me as u8; 8])?;
            comm.win_fence(win)?;

            // Epoch 2: the put must be visible locally; reply via local write.
            let mut got = [0u8; 8];
            comm.win_read_local(win, 0, &mut got)?;
            assert_eq!(got, [left as u8; 8], "{label}: put not visible at target");
            comm.win_write_local(win, 8, &[(me * 10) as u8; 4])?;
            comm.win_fence(win)?;

            // Epoch 3: get the neighbour's locally-written reply.
            let mut reply = [0u8; 4];
            comm.get(win, right, 8, &mut reply)?;
            assert_eq!(
                reply,
                [(right * 10) as u8; 4],
                "{label}: local write not visible to remote get"
            );
            comm.win_fence(win)?;
            comm.win_free(win)?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn adjacent_sub_line_puts_from_two_hosts_all_land() {
    // Four ranks on two hosts each put one 8-byte word into the same cache
    // line of rank 0's window inside one fence epoch. A put that went through
    // a cached write + whole-line flush would write its host's stale copy of
    // the neighbouring words back over what the other host had just put.
    // Always two hosts, whatever `CMPI_HOSTS` says: one host has one cache.
    let config = UniverseConfig::cxl_small(4).with_hosts(2);
    Universe::run(config, |comm: &mut Comm| {
        let n = comm.size();
        let me = comm.rank();
        let win = comm.win_allocate(64)?;
        comm.win_fence(win)?;
        for epoch in 0..256u64 {
            let word = |r: usize| (epoch << 8 | r as u64).to_le_bytes();
            comm.put(win, 0, 8 * me, &word(me))?;
            comm.win_fence(win)?;
            if me == 0 {
                let mut line = [0u8; 64];
                comm.win_read_local(win, 0, &mut line)?;
                for r in 0..n {
                    assert_eq!(
                        line[8 * r..8 * r + 8],
                        word(r),
                        "epoch {epoch}: rank {r}'s word was overwritten"
                    );
                }
            }
            comm.win_fence(win)?;
        }
        comm.win_free(win)
    })
    .unwrap();
}

#[test]
fn adjacent_element_accumulates_from_two_hosts_all_land() {
    // As above with `accumulate`: every rank adds 1.0 to its *own* element of
    // one cache line of rank 0's window inside a fence epoch. No element is
    // shared, so no atomicity is being asked for (accumulates to the same
    // element need `win_lock`) — yet a read-modify-write that went through a
    // cached write + whole-line flush would write back its host's stale copy
    // of the neighbours and lose their updates.
    let config = UniverseConfig::cxl_small(4).with_hosts(2);
    Universe::run(config, |comm: &mut Comm| {
        let n = comm.size();
        let me = comm.rank();
        let win = comm.win_allocate(64)?;
        if me == 0 {
            comm.win_write_local(win, 0, &f64_to_bytes(&vec![0.0; n]))?;
        }
        comm.win_fence(win)?;
        for epoch in 1..=256u64 {
            comm.accumulate(win, 0, 8 * me, &[1.0], ReduceOp::Sum)?;
            comm.win_fence(win)?;
            if me == 0 {
                let mut line = [0u8; 64];
                comm.win_read_local(win, 0, &mut line)?;
                for (r, &v) in bytes_to_f64(&line[..8 * n]).iter().enumerate() {
                    assert_eq!(
                        v, epoch as f64,
                        "epoch {epoch}: rank {r}'s element lost an update"
                    );
                }
            }
            comm.win_fence(win)?;
        }
        comm.win_free(win)
    })
    .unwrap();
}

#[test]
fn pscw_multiple_origins_per_target() {
    // Ranks 1..n all open access epochs to target 0, which posts one
    // exposure epoch naming every origin; each origin puts into a disjoint
    // slot. win_wait must not return before *all* origins completed, so the
    // target must observe every slot filled.
    for (label, config) in configs(4) {
        Universe::run(config, move |comm: &mut Comm| {
            let n = comm.size();
            let me = comm.rank();
            let win = comm.win_allocate(8 * n)?;
            if me == 0 {
                let origins: Vec<usize> = (1..n).collect();
                comm.win_post(win, &origins)?;
                comm.win_wait(win)?;
                for origin in 1..n {
                    let mut slot = [0u8; 8];
                    comm.win_read_local(win, origin * 8, &mut slot)?;
                    assert_eq!(
                        slot, [origin as u8; 8],
                        "{label}: origin {origin}'s put missing after win_wait"
                    );
                }
            } else {
                comm.win_start(win, &[0])?;
                comm.put(win, 0, me * 8, &[me as u8; 8])?;
                comm.win_complete(win)?;
            }
            comm.barrier()?;
            comm.win_free(win)?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn pscw_multiple_targets_per_origin_and_repeat_epochs() {
    // One origin (rank 0) opens a single access epoch to every other rank,
    // and the whole pattern repeats to check the flags reset correctly
    // between epochs.
    for (label, config) in configs(3) {
        Universe::run(config, move |comm: &mut Comm| {
            let n = comm.size();
            let me = comm.rank();
            let win = comm.win_allocate(32)?;
            for epoch in 0u8..3 {
                if me == 0 {
                    let targets: Vec<usize> = (1..n).collect();
                    comm.win_start(win, &targets)?;
                    for t in 1..n {
                        comm.put(win, t, 0, &[epoch + t as u8; 4])?;
                    }
                    comm.win_complete(win)?;
                } else {
                    comm.win_post(win, &[0])?;
                    comm.win_wait(win)?;
                    let mut slot = [0u8; 4];
                    comm.win_read_local(win, 0, &mut slot)?;
                    assert_eq!(
                        slot,
                        [epoch + me as u8; 4],
                        "{label}: epoch {epoch} put missing at target {me}"
                    );
                }
            }
            comm.barrier()?;
            comm.win_free(win)?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Whether rank `r` belongs to the PSCW group of epoch `e` of the two tests
/// below: two of the ranks 1..=3, rotating, and all three every fifth epoch —
/// so the pairs' epoch numbers drift apart.
fn in_group(e: u64, r: usize) -> bool {
    e.is_multiple_of(5) || !(e + r as u64).is_multiple_of(3)
}

/// Whether the epoch moves data between rank 0 and `r`, or only synchronizes.
fn puts(e: u64, r: usize) -> bool {
    (e / 2 + r as u64).is_multiple_of(2)
}

fn read_word(comm: &mut Comm, win: usize, offset: usize) -> Result<u64> {
    let mut word = [0u8; 8];
    comm.win_read_local(win, offset, &mut word)?;
    Ok(u64::from_le_bytes(word))
}

#[test]
fn pscw_many_origins_with_empty_epochs_and_changing_groups() {
    // Three origins, one target, 64 epochs; who takes part changes from epoch
    // to epoch and about half the access epochs issue no put at all. With
    // boolean flags an epoch without a put had no fence between the origin's
    // reset of its post flag and its complete store; with epoch numbers there
    // is no reset. The target checks after every `win_wait` that exactly the
    // puts of this epoch have landed.
    for (label, config) in configs(4) {
        Universe::run(config, move |comm: &mut Comm| {
            let (n, me) = (comm.size(), comm.rank());
            let win = comm.win_allocate(8 * n)?;
            comm.win_write_local(win, 0, &vec![0u8; 8 * n])?;
            comm.barrier()?;
            let mut expected = vec![0u64; n];
            for e in 0..64u64 {
                if me == 0 {
                    let origins: Vec<usize> = (1..n).filter(|&r| in_group(e, r)).collect();
                    comm.win_post(win, &origins)?;
                    comm.win_wait(win)?;
                    for &r in origins.iter().filter(|&&r| puts(e, r)) {
                        expected[r] = e + 1;
                    }
                    for (r, &want) in expected.iter().enumerate() {
                        let got = read_word(comm, win, 8 * r)?;
                        assert_eq!(got, want, "{label}: epoch {e}, origin {r}'s slot");
                    }
                } else if in_group(e, me) {
                    comm.win_start(win, &[0])?;
                    if puts(e, me) {
                        comm.put(win, 0, 8 * me, &(e + 1).to_le_bytes())?;
                    }
                    comm.win_complete(win)?;
                }
            }
            comm.barrier()?;
            comm.win_free(win)
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn pscw_many_targets_with_empty_epochs_and_changing_groups() {
    // The mirror image: one origin, three targets.
    for (label, config) in configs(4) {
        Universe::run(config, move |comm: &mut Comm| {
            let (n, me) = (comm.size(), comm.rank());
            let win = comm.win_allocate(8)?;
            comm.win_write_local(win, 0, &[0u8; 8])?;
            comm.barrier()?;
            let mut expected = 0u64;
            for e in 0..64u64 {
                if me == 0 {
                    let targets: Vec<usize> = (1..n).filter(|&r| in_group(e, r)).collect();
                    comm.win_start(win, &targets)?;
                    for &t in targets.iter().filter(|&&t| puts(e, t)) {
                        comm.put(win, t, 0, &(e + 1).to_le_bytes())?;
                    }
                    comm.win_complete(win)?;
                } else if in_group(e, me) {
                    comm.win_post(win, &[0])?;
                    comm.win_wait(win)?;
                    if puts(e, me) {
                        expected = e + 1;
                    }
                    let got = read_word(comm, win, 0)?;
                    assert_eq!(got, expected, "{label}: epoch {e} at target {me}");
                }
            }
            comm.barrier()?;
            comm.win_free(win)
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn pscw_post_and_start_in_opposite_orders() {
    // Both ranks are origin and target of each other in every epoch; one
    // posts before it starts, the other starts before it posts, and they
    // swap every epoch. `win_post` never blocks, so neither order deadlocks.
    for (label, config) in configs(2) {
        Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank();
            let peer = 1 - me;
            let win = comm.win_allocate(8)?;
            for e in 1..=32u64 {
                if e as usize % 2 == me {
                    comm.win_post(win, &[peer])?;
                    comm.win_start(win, &[peer])?;
                } else {
                    comm.win_start(win, &[peer])?;
                    comm.win_post(win, &[peer])?;
                }
                comm.put(win, peer, 0, &(e << 8 | me as u64).to_le_bytes())?;
                comm.win_complete(win)?;
                comm.win_wait(win)?;
                let got = read_word(comm, win, 0)?;
                assert_eq!(got, e << 8 | peer as u64, "{label}: epoch {e}");
            }
            comm.win_free(win)
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn a_new_window_starts_again_at_epoch_one() {
    // Three windows one after the other, each freed before the next is
    // allocated (the pool hands the same device memory out again). Every one
    // runs a different number of epochs, so cells left behind at a higher
    // epoch number — or a fence sequence, or a bakery ticket — would let the
    // next window's first `win_start` through before its `win_post`.
    for (label, config) in configs(2) {
        Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank();
            for (round, epochs) in [5u64, 2, 3].into_iter().enumerate() {
                let win = comm.win_allocate(64)?;
                for e in 1..=epochs {
                    let marker = (round as u64) << 32 | e;
                    if me == 1 {
                        // What the origin must find: written before the post.
                        comm.win_write_local(win, 8, &marker.to_le_bytes())?;
                        comm.win_post(win, &[0])?;
                        comm.win_wait(win)?;
                        let got = read_word(comm, win, 0)?;
                        assert_eq!(got, marker, "{label}: window {round}, epoch {e}");
                    } else {
                        comm.win_start(win, &[1])?;
                        let mut seen = [0u8; 8];
                        comm.get(win, 1, 8, &mut seen)?;
                        assert_eq!(
                            u64::from_le_bytes(seen),
                            marker,
                            "{label}: window {round}: epoch {e} started before its post"
                        );
                        comm.put(win, 1, 0, &seen)?;
                        comm.win_complete(win)?;
                    }
                    comm.win_fence(win)?;
                    comm.win_lock(win, 1)?;
                    comm.win_unlock(win, 1)?;
                }
                comm.win_free(win)?;
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Rank 0 → rank 1 PSCW epochs of one 8-byte put.
fn pscw_epochs(comm: &mut Comm, win: usize, epochs: u64) -> Result<()> {
    for e in 0..epochs {
        if comm.rank() == 0 {
            comm.win_start(win, &[1])?;
            comm.put(win, 1, 0, &e.to_le_bytes())?;
            comm.win_complete(win)?;
        } else {
            comm.win_post(win, &[0])?;
            comm.win_wait(win)?;
        }
    }
    Ok(())
}

#[test]
fn rma_sync_lines_counts_one_device_line_per_peer_and_call() {
    // Independent of every cost constant: N PSCW epochs are 2N lines on each
    // side (`start` + `complete`, `post` + `wait`), M fences 2M (one store,
    // one load of the peer's slot), L uncontended lock/unlock pairs 5L (two
    // stores and two line scans, then the release).
    const N: u64 = 7;
    const M: u64 = 5;
    const L: u64 = 3;
    let config = UniverseConfig::cxl_small(2).with_hosts(matrix_hosts());
    let results = Universe::run(config, |comm: &mut Comm| {
        let win = comm.win_allocate(64)?;
        let mut seen = vec![comm.stats().rma_sync_lines];
        pscw_epochs(comm, win, N)?;
        seen.push(comm.stats().rma_sync_lines);
        for _ in 0..M {
            comm.win_fence(win)?;
        }
        seen.push(comm.stats().rma_sync_lines);
        if comm.rank() == 0 {
            for _ in 0..L {
                comm.win_lock(win, 1)?;
                comm.accumulate(win, 1, 8, &[1.0], ReduceOp::Sum)?;
                comm.win_unlock(win, 1)?;
            }
        }
        seen.push(comm.stats().rma_sync_lines);
        comm.barrier()?;
        comm.win_free(win)?;
        Ok((seen, comm.stats()))
    })
    .unwrap();
    for (rank, ((seen, snapshot), report)) in results.iter().enumerate() {
        let locks = if rank == 0 { 5 * L } else { 0 };
        assert_eq!(
            *seen,
            [0, 2 * N, 2 * N + 2 * M, 2 * N + 2 * M + locks],
            "rank {rank}"
        );
        assert_eq!(
            *snapshot, report.stats,
            "rank {rank}: snapshot vs RankReport"
        );
    }
}

#[test]
fn a_mixed_synchronization_script_ends_on_identical_clocks_in_every_launch() {
    // No RMA synchronization charge of an uncontended script depends on how
    // the host scheduled the two ranks: failed polls are free and every stamp
    // merged is the stamp of the store that satisfied the wait. (A contended
    // `win_lock` is the exception — see "a stamped bakery release" in the
    // ROADMAP item *Fig 10 through `Comm`, the large-n cliff, and every curve
    // gated* — so each rank locks the *other's* window here.)
    let launch = || {
        let config = UniverseConfig::cxl_small(2).with_hosts(matrix_hosts());
        Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank();
            let win = comm.win_allocate(4096)?;
            let mut page = vec![0u8; 4096];
            for round in 0..8u64 {
                pscw_epochs(comm, win, 1 + round % 3)?;
                // An epoch the other way round, without a put.
                if me == 1 {
                    comm.win_start(win, &[0])?;
                    comm.win_complete(win)?;
                } else {
                    comm.win_post(win, &[1])?;
                    comm.win_wait(win)?;
                }
                comm.win_fence(win)?;
                comm.get(win, 1 - me, 0, &mut page)?;
                comm.win_fence(win)?;
                comm.win_lock(win, 1 - me)?;
                comm.accumulate(win, 1 - me, 64, &[round as f64], ReduceOp::Sum)?;
                comm.win_unlock(win, 1 - me)?;
            }
            comm.win_free(win)?;
            Ok(comm.clock_ns().to_bits())
        })
        .unwrap()
        .into_iter()
        .map(|(clock, _)| clock)
        .collect::<Vec<u64>>()
    };
    let first = launch();
    for n in 1..20 {
        assert_eq!(launch(), first, "launch {n} ended on different clocks");
    }
}

#[test]
fn passive_target_lock_provides_mutual_exclusion() {
    // Every rank increments a counter in rank 0's window under the exclusive
    // lock, read-modify-write with a deliberately racy get/put pair: only
    // mutual exclusion makes the final count equal the rank count. Repeats
    // amplify any lost update.
    const ROUNDS: usize = 5;
    for (label, config) in configs(4) {
        let results = Universe::run(config, move |comm: &mut Comm| {
            let win = comm.win_allocate(16)?;
            if comm.rank() == 0 {
                comm.win_write_local(win, 0, &f64_to_bytes(&[0.0]))?;
            }
            comm.barrier()?;
            for _ in 0..ROUNDS {
                comm.win_lock(win, 0)?;
                let mut cur = [0u8; 8];
                comm.get(win, 0, 0, &mut cur)?;
                let v = bytes_to_f64(&cur)[0] + 1.0;
                comm.put(win, 0, 0, &f64_to_bytes(&[v]))?;
                comm.win_unlock(win, 0)?;
            }
            comm.barrier()?;
            let mut finl = [0u8; 8];
            if comm.rank() == 0 {
                comm.win_read_local(win, 0, &mut finl)?;
            }
            comm.win_free(win)?;
            Ok(bytes_to_f64(&finl)[0] * (comm.rank() == 0) as u8 as f64)
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            results[0].0,
            (4 * ROUNDS) as f64,
            "{label}: lost updates under the exclusive lock"
        );
    }
}

#[test]
fn lock_and_accumulate_mix_with_fence() {
    // Accumulate under passive-target locks between fences (the
    // one_sided_fence_and_accumulate pattern, extended with a second slot
    // and a max-reduction).
    for (label, config) in configs(4) {
        Universe::run(config, move |comm: &mut Comm| {
            let n = comm.size();
            let me = comm.rank();
            let win = comm.win_allocate(64)?;
            if me == 0 {
                comm.win_write_local(win, 0, &f64_to_bytes(&[0.0, f64::NEG_INFINITY]))?;
            }
            comm.win_fence(win)?;
            comm.win_lock(win, 0)?;
            comm.accumulate(win, 0, 0, &[2.0], ReduceOp::Sum)?;
            comm.accumulate(win, 0, 8, &[me as f64], ReduceOp::Max)?;
            comm.win_unlock(win, 0)?;
            comm.win_fence(win)?;
            if me == 0 {
                let mut buf = [0u8; 16];
                comm.win_read_local(win, 0, &mut buf)?;
                let vals = bytes_to_f64(&buf);
                assert_eq!(vals[0], 2.0 * n as f64, "{label}: sum accumulate");
                assert_eq!(vals[1], (n - 1) as f64, "{label}: max accumulate");
            }
            comm.win_free(win)?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn sync_state_errors_are_rejected_on_both_transports() {
    for (label, config) in configs(2) {
        Universe::run(config, move |comm: &mut Comm| {
            let win = comm.win_allocate(32)?;
            // Epoch-state machine violations.
            assert!(matches!(
                comm.win_complete(win),
                Err(MpiError::InvalidSyncState(_))
            ));
            assert!(matches!(
                comm.win_wait(win),
                Err(MpiError::InvalidSyncState(_))
            ));
            assert!(matches!(
                comm.win_unlock(win, 0),
                Err(MpiError::InvalidSyncState(_))
            ));
            // Double lock on the same target.
            comm.win_lock(win, 0)?;
            assert!(matches!(
                comm.win_lock(win, 0),
                Err(MpiError::InvalidSyncState(_))
            ));
            comm.win_unlock(win, 0)?;
            // Bounds and stale-window errors.
            assert!(matches!(
                comm.put(win, 0, 1 << 20, &[0u8; 8]),
                Err(MpiError::WindowOutOfBounds { .. })
            ));
            assert!(matches!(
                comm.get(99, 0, 0, &mut [0u8; 1]),
                Err(MpiError::InvalidWindow(99))
            ));
            comm.barrier()?;
            comm.win_free(win)?;
            assert!(matches!(
                comm.put(win, 0, 0, &[0u8; 1]),
                Err(MpiError::InvalidWindow(_))
            ));
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn an_offset_whose_end_wraps_is_out_of_bounds() {
    // `usize::MAX + len` wraps to a small end: an unchecked sum passes the
    // bounds check and addresses the byte before rank 1's region — the last
    // byte of rank 0's. Every access must be refused, and that byte kept.
    for (label, config) in configs(2) {
        Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank();
            let win = comm.win_allocate(64)?;
            if me == 0 {
                comm.win_write_local(win, 63, &[7])?;
            }
            comm.win_fence(win)?;
            if me == 1 {
                let refused = |what: &str, r: Result<()>| {
                    assert!(
                        matches!(r, Err(MpiError::WindowOutOfBounds { .. })),
                        "{label}: {what} at usize::MAX returned {r:?}"
                    );
                };
                let far = usize::MAX;
                refused("put", comm.put(win, 1, far, &[1]));
                refused("get", comm.get(win, 1, far, &mut [0]));
                refused(
                    "accumulate",
                    comm.accumulate(win, 1, far, &[1.0], ReduceOp::Sum),
                );
                refused("win_read_local", comm.win_read_local(win, far, &mut [0]));
                refused("win_write_local", comm.win_write_local(win, far, &[1]));
            }
            comm.win_fence(win)?;
            if me == 0 {
                let mut last = [0u8];
                comm.win_read_local(win, 63, &mut last)?;
                assert_eq!(last, [7], "{label}: rank 0's last byte was written");
            }
            comm.win_fence(win)?;
            comm.win_free(win)
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn a_local_write_beside_a_cached_line_keeps_a_remote_put() {
    // Rank 0's host caches a line of its window; rank 1, on the other host,
    // puts into the first word of it; rank 0 then writes the second word
    // locally. A local write that went through the cache would hit the stale
    // line and flush all of it back, zeros over the put.
    for (label, base) in [
        ("CXL-SHM", UniverseConfig::cxl_small(2)),
        ("TCP", UniverseConfig::tcp(2, TcpNic::MellanoxCx6Dx)),
    ] {
        Universe::run(base.with_hosts(2), move |comm: &mut Comm| {
            let me = comm.rank();
            let win = comm.win_allocate(64)?;
            comm.win_fence(win)?;
            if me == 0 {
                comm.win_read_local(win, 0, &mut [0u8; 64])?;
            }
            comm.win_fence(win)?;
            if me == 1 {
                comm.put(win, 0, 0, &[1u8; 8])?;
            }
            comm.win_fence(win)?;
            if me == 0 {
                comm.win_write_local(win, 8, &[2u8; 8])?;
            }
            comm.win_fence(win)?;
            if me == 1 {
                let mut got = [0u8; 16];
                comm.get(win, 0, 0, &mut got)?;
                assert_eq!(got[..8], [1; 8], "{label}: the put was written over");
                assert_eq!(got[8..], [2; 8], "{label}: the local write is missing");
            }
            comm.win_fence(win)?;
            comm.win_free(win)
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn windows_on_split_communicators() {
    // A same-group split is still world-spanning: the full window API must
    // work through it, with local ranks translated (the split reverses rank
    // order via the key). A true subset communicator must reject window
    // calls with InvalidCommunicator on both transports.
    for (label, config) in configs(4) {
        Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank();
            let n = comm.size();
            // Reverse-order world-spanning split: local rank = n-1-me.
            let mut rev = comm
                .comm_split(0, (n - me) as i32)?
                .expect("color 0 keeps everyone");
            assert_eq!(rev.size(), n);
            assert_eq!(rev.rank(), n - 1 - me);
            let win = rev.win_allocate(32)?;
            let lme = rev.rank();
            let lright = (lme + 1) % n;
            // Fence + put through *local* ranks of the reversed communicator.
            rev.win_fence(win)?;
            rev.put(win, lright, 0, &[lme as u8; 4])?;
            rev.win_fence(win)?;
            let mut got = [0u8; 4];
            rev.win_read_local(win, 0, &mut got)?;
            assert_eq!(
                got,
                [((lme + n - 1) % n) as u8; 4],
                "{label}: put through reversed split landed wrong"
            );
            // PSCW through the split's rank space.
            if lme == 0 {
                rev.win_post(win, &[1])?;
                rev.win_wait(win)?;
                let mut slot = [0u8; 4];
                rev.win_read_local(win, 16, &mut slot)?;
                assert_eq!(slot, [9u8; 4], "{label}: PSCW through split");
            } else if lme == 1 {
                rev.win_start(win, &[0])?;
                rev.put(win, 0, 16, &[9u8; 4])?;
                rev.win_complete(win)?;
            }
            rev.barrier()?;
            rev.win_free(win)?;

            // True subsets reject the window API: allocation, and every call
            // on a world window, the ones that translate no rank included.
            let mut solo = comm.comm_split(me as i32, 0)?.expect("own color");
            assert_eq!(solo.size(), 1);
            assert!(matches!(
                solo.win_allocate(16),
                Err(MpiError::InvalidCommunicator(_))
            ));
            let world_win = comm.win_allocate(16)?;
            type Call = fn(&mut Comm, WinId) -> Result<()>;
            let calls: [(&str, Call); 13] = [
                ("win_fence", |c, w| c.win_fence(w)),
                ("win_complete", |c, w| c.win_complete(w)),
                ("win_wait", |c, w| c.win_wait(w)),
                ("win_lock", |c, w| c.win_lock(w, 0)),
                ("win_unlock", |c, w| c.win_unlock(w, 0)),
                ("win_post", |c, w| c.win_post(w, &[0])),
                ("win_start", |c, w| c.win_start(w, &[0])),
                ("put", |c, w| c.put(w, 0, 0, &[1])),
                ("get", |c, w| c.get(w, 0, 0, &mut [0])),
                ("accumulate", |c, w| {
                    c.accumulate(w, 0, 0, &[1.0], ReduceOp::Sum)
                }),
                ("win_read_local", |c, w| c.win_read_local(w, 0, &mut [0])),
                ("win_write_local", |c, w| c.win_write_local(w, 0, &[1])),
                ("win_free", |c, w| c.win_free(w)),
            ];
            for (name, call) in calls {
                let got = call(&mut solo, world_win);
                assert!(
                    matches!(got, Err(MpiError::InvalidCommunicator(_))),
                    "{label}: {name} on a one-rank split gave {got:?}"
                );
            }
            comm.win_free(world_win)?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}
