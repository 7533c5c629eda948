//! ULFM-style fault-tolerance matrix: ranks are killed at randomized points
//! inside blocking / nonblocking / persistent collectives on both transports
//! and both data planes; the survivors detect the failure through
//! `ErrorsReturn` error handlers, agree on the outcome, `shrink` the
//! communicator and redo the interrupted round — completing with results that
//! are byte-identical to the analytic values for the shrunk membership.
//!
//! Kill points are derived from `CMPI_FAULT_SEED` (default `0xC0FFEE`) through
//! an LCG, so CI can sweep seeds to move the death across the victims' whole
//! communication schedules.

mod common;

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::{
    Comm, ErrHandler, FaultPlan, FaultTrigger, FtOutcome, HierarchyMode, MpiError, ReduceOp,
    Universe, UniverseConfig,
};

const ROUNDS: usize = 12;

fn base_seed() -> u64 {
    std::env::var("CMPI_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407)
}

/// One verified collective round. Every value is checked against the analytic
/// result for the *current* communicator membership (`world_ranks`), so the
/// same code validates both the pre-failure full group and every post-shrink
/// group. Returns a value folded into the rank's running checksum once the
/// round is accepted by agreement.
fn run_round(comm: &mut Comm, round: usize) -> cmpi::mpi::Result<u64> {
    let members = comm.group().world_ranks().to_vec();
    let n = comm.size() as u64;
    let r = round as u64;
    let wsum: u64 = members.iter().map(|&m| m as u64).sum();
    match round % 6 {
        0 => {
            // Blocking allreduce.
            let mut v = [comm.world_rank() as u64 + r, 7 * r + 1];
            comm.allreduce(&mut v, ReduceOp::Sum)?;
            assert_eq!(v[0], wsum + n * r, "allreduce sum, round {round}");
            assert_eq!(v[1], n * (7 * r + 1), "allreduce constant, round {round}");
            Ok(v[0] ^ v[1])
        }
        1 => {
            // Blocking bcast from local root 0 (re-elected after a shrink:
            // the smallest surviving world rank).
            let seed = r.wrapping_mul(0x9E37_79B9) + n;
            let mut buf = if comm.rank() == 0 {
                [seed; 4]
            } else {
                [0u64; 4]
            };
            comm.bcast_into(0, &mut buf)?;
            assert_eq!(buf, [seed; 4], "bcast payload, round {round}");
            Ok(seed)
        }
        2 => {
            // Nonblocking allreduce through the progress engine.
            let vals = [comm.world_rank() as u64 * 3 + 1];
            let mut req = comm.iallreduce(&vals, ReduceOp::Sum)?;
            comm.wait(&mut req)?;
            let out: Vec<u64> = req.take_values()?;
            let expect: u64 = members.iter().map(|&m| m as u64 * 3 + 1).sum();
            assert_eq!(out, vec![expect], "iallreduce, round {round}");
            Ok(expect)
        }
        3 => {
            // Blocking allgather: block i must hold member i's contribution.
            let send = [comm.world_rank() as u64 + 1000 * r];
            let mut recv = vec![0u64; n as usize];
            comm.allgather_into(&send, &mut recv)?;
            for (i, &m) in members.iter().enumerate() {
                assert_eq!(
                    recv[i],
                    m as u64 + 1000 * r,
                    "allgather block, round {round}"
                );
            }
            Ok(recv
                .iter()
                .fold(0u64, |a, &b| a.wrapping_mul(31).wrapping_add(b)))
        }
        4 => {
            // Persistent allreduce (init + start + wait + read).
            let vals = [comm.world_rank() as u64 + 5, r];
            let mut req = comm.allreduce_init(&vals, ReduceOp::Sum)?;
            comm.start(&mut req)?;
            comm.wait(&mut req)?;
            let out: Vec<u64> = req.read_result()?;
            assert_eq!(
                out,
                vec![wsum + 5 * n, n * r],
                "persistent allreduce, round {round}"
            );
            Ok(out[0].wrapping_add(out[1]))
        }
        _ => {
            comm.barrier()?;
            Ok(0x5EED ^ r)
        }
    }
}

/// The ULFM survivor loop: attempt a round; agree on whether *everyone*
/// succeeded; on any failure, every survivor shrinks the communicator and the
/// round is redone on the new one. Returns the rank's accumulated checksum
/// and its final membership.
fn ulfm_body(comm: &mut Comm, rounds: usize) -> cmpi::mpi::Result<(u64, Vec<usize>)> {
    ulfm_loop(comm, rounds, run_round)
}

/// [`ulfm_body`] over an arbitrary verified round.
fn ulfm_loop(
    comm: &mut Comm,
    rounds: usize,
    run_round: impl Fn(&mut Comm, usize) -> cmpi::mpi::Result<u64>,
) -> cmpi::mpi::Result<(u64, Vec<usize>)> {
    comm.set_errhandler(ErrHandler::ErrorsReturn);
    let mut acc = 0u64;
    let mut round = 0usize;
    let mut shrinks = 0usize;
    while round < rounds {
        let attempt = match run_round(comm, round) {
            Ok(v) => Some(v),
            Err(MpiError::ProcFailed { .. }) | Err(MpiError::Revoked(_)) => None,
            Err(e) => return Err(e),
        };
        // Fault-tolerant agreement: AND over success votes completes even if
        // further members die mid-agreement. A unanimous round is accepted;
        // anything else makes every survivor shrink and retry the round.
        match comm.agree(attempt.is_some() as u64) {
            Ok(1) => {
                let v = attempt.expect("unanimous agreement implies local success");
                acc = acc.wrapping_mul(0x100000001B3).wrapping_add(v);
                round += 1;
            }
            Ok(_) => {
                *comm = comm.shrink()?;
                shrinks += 1;
            }
            Err(MpiError::ProcFailed { .. }) | Err(MpiError::Revoked(_)) => {
                *comm = comm.shrink()?;
                shrinks += 1;
            }
            Err(e) => return Err(e),
        }
        if shrinks > 8 {
            return Err(MpiError::Transport("runaway shrink loop".into()));
        }
    }
    Ok((acc, comm.group().world_ranks().to_vec()))
}

/// Drive one faulty universe and check the ULFM invariants: the victims (and
/// only the victims) are killed, every survivor finishes with the same
/// checksum, and every survivor's final membership is exactly the survivor
/// set.
fn run_case(config: UniverseConfig, victims: &[usize], label: &str) {
    run_case_with(config, victims, label, |comm| ulfm_body(comm, ROUNDS));
}

/// [`run_case`] over an arbitrary survivor loop.
fn run_case_with(
    config: UniverseConfig,
    victims: &[usize],
    label: &str,
    body: impl Fn(&mut Comm) -> cmpi::mpi::Result<(u64, Vec<usize>)> + Send + Sync + 'static,
) {
    let ranks = config.ranks;
    let outcomes =
        Universe::run_ft(config, body).unwrap_or_else(|e| panic!("{label}: universe failed: {e}"));
    assert_eq!(outcomes.len(), ranks, "{label}: outcome per rank");
    let survivors: Vec<usize> = (0..ranks).filter(|r| !victims.contains(r)).collect();
    let mut accs = Vec::new();
    for (rank, outcome) in outcomes.iter().enumerate() {
        match outcome {
            FtOutcome::Killed { rank: dead, .. } => {
                assert_eq!(*dead, rank);
                assert!(
                    victims.contains(&rank),
                    "{label}: rank {rank} died unexpectedly"
                );
            }
            FtOutcome::Survived((acc, membership), _) => {
                assert!(
                    !victims.contains(&rank),
                    "{label}: victim {rank} survived its own kill"
                );
                assert_eq!(
                    membership, &survivors,
                    "{label}: rank {rank} final membership"
                );
                accs.push(*acc);
            }
        }
    }
    assert_eq!(
        accs.len(),
        survivors.len(),
        "{label}: all survivors reported"
    );
    assert!(
        accs.windows(2).all(|w| w[0] == w[1]),
        "{label}: survivor checksums diverged: {accs:?}"
    );
    for v in victims {
        assert!(
            outcomes[*v].is_killed(),
            "{label}: victim {v} was never killed (kill point past schedule end?)"
        );
    }
}

/// The window-less ring oracle: a zero arena creates no window.
const RING: usize = 0;
/// A shared window of 64 KiB slots.
const SHM: usize = common::TEST_SHM_ARENA_BYTES;

fn cxl(n: usize, hosts: usize, arena: usize, hier: HierarchyMode) -> UniverseConfig {
    let mut cfg = UniverseConfig::cxl_small(n).with_hosts(hosts);
    cfg.coll.shm_arena_bytes = arena;
    cfg.coll.hierarchy = hier;
    if arena > 0 {
        // cxl_small's pool deliberately cannot hold data-plane windows (it is
        // the fall-back-to-ring fixture); give the window legs real ones.
        cfg = common::with_window_headroom(cfg, 64 * 1024 * 1024);
    }
    cfg
}

fn tcp(n: usize, hosts: usize, hier: HierarchyMode) -> UniverseConfig {
    let mut cfg = UniverseConfig::tcp(n, TcpNic::StandardEthernet).with_hosts(hosts);
    cfg.coll.hierarchy = hier;
    cfg
}

#[test]
fn no_fault_control_matches_plain_run() {
    // Without fault plans, run_ft must behave exactly like run: everyone
    // survives the ULFM loop with identical checksums and full membership.
    for config in [
        cxl(5, 1, RING, HierarchyMode::Off),
        tcp(5, 1, HierarchyMode::Off),
    ] {
        run_case(config, &[], "control");
    }
}

#[test]
fn ring_collectives_survive_random_kills_cxl() {
    let mut seed = base_seed();
    for n in [3usize, 5, 6, 7] {
        seed = lcg(seed);
        let victim = 1 + (seed >> 33) as usize % (n - 1);
        seed = lcg(seed);
        let kill = 1 + (seed >> 33) % 10;
        let config = cxl(n, 1, RING, HierarchyMode::Off).with_faults(vec![FaultPlan {
            victim,
            trigger: FaultTrigger::NthSend(kill),
        }]);
        run_case(
            config,
            &[victim],
            &format!("cxl/ring n={n} kill=send#{kill}"),
        );
    }
}

#[test]
fn shm_data_plane_survives_publish_and_ack_kills() {
    // Forced shared-window data plane: kills land inside dp_expose (publish)
    // and at dp_pull's completion-line store (ack); a writer waiting on a
    // dead reader's line must fail over, not wedge.
    let mut seed = lcg(base_seed() ^ 0xD1);
    for (i, n) in [3usize, 5, 6, 7].into_iter().enumerate() {
        seed = lcg(seed);
        let victim = 1 + (seed >> 33) as usize % (n - 1);
        seed = lcg(seed);
        let kill = 1 + (seed >> 33) % 4;
        let trigger = if i % 2 == 0 {
            FaultTrigger::NthPublish(kill)
        } else {
            FaultTrigger::NthAck(kill)
        };
        let config =
            cxl(n, 1, SHM, HierarchyMode::Off).with_faults(vec![FaultPlan { victim, trigger }]);
        run_case(
            config,
            &[victim],
            &format!("cxl/shm n={n} kill={trigger:?}"),
        );
    }
}

#[test]
fn a_writer_dead_before_its_flag_fails_a_row_as_it_fails_one_line() {
    // The victim dies at the publish of its first exposure, so its flag never
    // rises. A broadcast leaf awaits that one line; every member of an
    // allgather awaits it among the others of its row. Either wait must end
    // in `ProcFailed` naming the victim — and the row, which wants all of its
    // lines or none, without having read anything into the clock.
    let n = 5;
    let victim = 1 + (lcg(base_seed() ^ 0xA11) >> 33) as usize % (n - 1);
    for row in [false, true] {
        let config = cxl(n, 1, SHM, HierarchyMode::Off).with_faults(vec![FaultPlan {
            victim,
            trigger: FaultTrigger::NthPublish(1),
        }]);
        let outcomes = Universe::run_ft(config, move |comm| {
            comm.set_errhandler(ErrHandler::ErrorsReturn);
            let before = comm.data_plane_stats();
            let result = if row {
                comm.allgather_into(&[comm.rank() as u64], &mut vec![0u64; n])
            } else {
                comm.bcast_into(victim, &mut [7u64])
            };
            if comm.rank() == victim {
                return result; // killed at its publish
            }
            let Err(MpiError::ProcFailed { dead, .. }) = result else {
                panic!("rank {} (row: {row}) got {result:?}", comm.rank());
            };
            assert_eq!(dead, vec![victim]);
            let after = comm.data_plane_stats();
            assert_eq!(
                (after.row_reads, after.pull_ops),
                (before.row_reads, before.pull_ops)
            );
            Ok(())
        })
        .unwrap();
        for (rank, outcome) in outcomes.iter().enumerate() {
            assert_eq!(
                outcome.is_killed(),
                rank == victim,
                "row: {row}, rank {rank}"
            );
        }
    }
}

#[test]
fn a_writer_dead_before_its_flag_fails_a_slot_run_as_it_fails_a_row() {
    // The same death with the payloads in data slots: a 64 KiB allgather and
    // an irregular exchange read every peer behind one row, and a reader that
    // has seen four flags of five up has still read no slot. The run must end
    // in `ProcFailed` naming the victim on every member, with no row charged
    // and not a byte pulled.
    let n = 6;
    let victim = 1 + (lcg(base_seed() ^ 0x5107) >> 33) as usize % (n - 1);
    for irregular in [false, true] {
        let config = cxl(n, 1, SHM, HierarchyMode::Off).with_faults(vec![FaultPlan {
            victim,
            trigger: FaultTrigger::NthPublish(1),
        }]);
        let outcomes = Universe::run_ft(config, move |comm| {
            comm.set_errhandler(ErrHandler::ErrorsReturn);
            let before = comm.data_plane_stats();
            if comm.rank() == victim {
                // Let the others get as far as their row first.
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            let result = if irregular {
                let counts: Vec<usize> = (0..n).map(|peer| 100 + peer).collect();
                let mine = vec![100 + comm.rank(); n];
                let send = vec![comm.rank() as u64; counts.iter().sum()];
                comm.alltoallv(&send, &counts, &mine).map(drop)
            } else {
                let block = vec![comm.rank() as u8; 64 * 1024];
                comm.allgather_into(&block, &mut vec![0u8; n * 64 * 1024])
            };
            if comm.rank() == victim {
                return result; // killed at its publish
            }
            let Err(MpiError::ProcFailed { dead, .. }) = result else {
                panic!(
                    "rank {} (irregular: {irregular}) got {result:?}",
                    comm.rank()
                );
            };
            assert_eq!(dead, vec![victim]);
            let after = comm.data_plane_stats();
            assert_eq!(
                (after.row_reads, after.pull_ops, after.bytes_pulled),
                (before.row_reads, before.pull_ops, before.bytes_pulled)
            );
            Ok(())
        })
        .unwrap();
        for (rank, outcome) in outcomes.iter().enumerate() {
            assert_eq!(
                outcome.is_killed(),
                rank == victim,
                "irregular: {irregular}, rank {rank}"
            );
        }
    }
}

#[test]
fn reader_death_before_its_completion_line_frees_a_writer_running_ahead() {
    // A broadcast root exposes without waiting for anybody until it runs out
    // of slots. The victim pulls the first broadcast and dies at the store
    // of its completion line, so when the root comes round to the slot
    // again — DP_SLOTS collectives ahead of the corpse — the line it needs
    // will never be written: the root must observe the death there (or count
    // the dead reader as done) and the survivors recover.
    for victim in [1usize, 3] {
        let config = cxl(4, 1, SHM, HierarchyMode::Off).with_faults(vec![FaultPlan {
            victim,
            trigger: FaultTrigger::NthAck(1),
        }]);
        run_case_with(
            config,
            &[victim],
            &format!("cxl/shm root runs ahead of dead reader {victim}"),
            |comm| {
                ulfm_loop(comm, 3, |comm, round| {
                    let mut acc = 0u64;
                    for i in 0..DP_SLOTS + 2 {
                        let seed = (round * 100 + i) as u64 + comm.size() as u64;
                        // 3 words ride in the flag line, 9 in the data slot.
                        let mut buf = vec![0u64; if i % 2 == 0 { 3 } else { 9 }];
                        if comm.rank() == 0 {
                            buf.fill(seed);
                        }
                        comm.bcast_into(0, &mut buf)?;
                        assert!(buf.iter().all(|&w| w == seed), "bcast {i} of round {round}");
                        acc = acc.wrapping_mul(31).wrapping_add(seed);
                    }
                    Ok(acc)
                })
            },
        );
    }
}

#[test]
fn ring_collectives_survive_random_kills_tcp() {
    let mut seed = lcg(base_seed() ^ 0x7C9);
    for n in [3usize, 5, 6, 7] {
        seed = lcg(seed);
        let victim = 1 + (seed >> 33) as usize % (n - 1);
        seed = lcg(seed);
        let kill = 1 + (seed >> 33) % 10;
        let config = tcp(n, 1, HierarchyMode::Off).with_faults(vec![FaultPlan {
            victim,
            trigger: FaultTrigger::NthSend(kill),
        }]);
        run_case(config, &[victim], &format!("tcp n={n} kill=send#{kill}"));
    }
}

#[test]
fn host_leader_death_reelects_under_forced_hierarchy_cxl() {
    // Rank 0 leads host 0 under the forced two-level composition; killing it
    // forces the shrunk communicator to re-derive the hierarchy with a new
    // leader.
    let mut seed = lcg(base_seed() ^ 0x1EAD);
    for n in [6usize, 7] {
        seed = lcg(seed);
        let kill = 1 + (seed >> 33) % 12;
        let config = cxl(n, 2, RING, HierarchyMode::Force).with_faults(vec![FaultPlan {
            victim: 0,
            trigger: FaultTrigger::NthSend(kill),
        }]);
        run_case(
            config,
            &[0],
            &format!("cxl/hier n={n} leader kill=send#{kill}"),
        );
    }
}

#[test]
fn host_leader_death_reelects_under_forced_hierarchy_tcp() {
    let mut seed = lcg(base_seed() ^ 0x2EAD);
    for n in [6usize, 7] {
        seed = lcg(seed);
        let kill = 1 + (seed >> 33) % 12;
        let config = tcp(n, 2, HierarchyMode::Force).with_faults(vec![FaultPlan {
            victim: 0,
            trigger: FaultTrigger::NthSend(kill),
        }]);
        run_case(
            config,
            &[0],
            &format!("tcp/hier n={n} leader kill=send#{kill}"),
        );
    }
}

#[test]
fn two_sequential_victims_shrink_twice() {
    let config = cxl(7, 1, RING, HierarchyMode::Off).with_faults(vec![
        FaultPlan {
            victim: 2,
            trigger: FaultTrigger::NthSend(3),
        },
        FaultPlan {
            victim: 5,
            trigger: FaultTrigger::NthSend(17),
        },
    ]);
    run_case(config, &[2, 5], "cxl two victims");
}

#[test]
fn seeded_random_op_kill_sweeps_the_schedule() {
    // The SeededOp trigger picks the kill operation itself; sweep a few seeds
    // so the death lands in different collectives (and different op kinds on
    // the shm data plane).
    let base = base_seed();
    for (i, arena) in [RING, SHM].into_iter().enumerate() {
        let seed = lcg(base ^ (i as u64) << 7);
        let config = cxl(5, 1, arena, HierarchyMode::Off).with_faults(vec![FaultPlan {
            victim: 3,
            // Keep the kill window inside the victim's op budget: rank 3 of 5
            // performs only ~10 ring sends across the 12 rounds, and far
            // fewer publishes on the shm plane; a wider window would let the
            // schedule end before the kill fires (run_case would then fail
            // the "victim actually died" assertion).
            trigger: FaultTrigger::SeededOp { seed, max_ops: 8 },
        }]);
        run_case(config, &[3], &format!("cxl seeded arena={arena}"));
    }
}

// ---------------------------------------------------------------------------
// Targeted ULFM semantics: error handlers, request attribution, ack.
// ---------------------------------------------------------------------------

#[test]
fn errors_abort_default_poisons_the_universe() {
    // Without ErrorsReturn, a peer death is fatal for the whole universe
    // (MPI_ERRORS_ARE_FATAL): the survivors' collectives abort with PeerDead
    // and the run as a whole errors.
    let config = cxl(3, 1, RING, HierarchyMode::Off).with_faults(vec![FaultPlan {
        victim: 1,
        trigger: FaultTrigger::NthSend(1),
    }]);
    let err = Universe::run_ft(config, |comm| {
        for _ in 0..ROUNDS {
            let mut v = [comm.world_rank() as u64];
            comm.allreduce(&mut v, ReduceOp::Sum)?;
        }
        Ok(())
    })
    .expect_err("default error handler must make the death fatal");
    assert!(
        matches!(err, MpiError::PeerDead(_)),
        "expected PeerDead cascade, got: {err}"
    );
}

#[test]
fn send_to_dead_rank_fails_immediately() {
    let config = cxl(3, 1, RING, HierarchyMode::Off).with_faults(vec![FaultPlan {
        victim: 1,
        trigger: FaultTrigger::NthSend(1),
    }]);
    let outcomes = Universe::run_ft(config, |comm| {
        comm.set_errhandler(ErrHandler::ErrorsReturn);
        match comm.rank() {
            1 => comm.send(0, 9, b"never arrives"), // dies at entry
            0 => {
                // Wait for the death to be recorded, then a send to the dead
                // rank must fail fast with ProcFailed naming it.
                let recv = comm.recv_owned(Some(1), Some(9));
                let Err(MpiError::ProcFailed { ctx, dead, .. }) = recv else {
                    panic!("recv from dead rank returned: {recv:?}");
                };
                assert_eq!(ctx, 0);
                assert_eq!(dead, vec![1]);
                let send = comm.send(1, 3, b"into the void");
                let Err(MpiError::ProcFailed { dead, detail, .. }) = send else {
                    panic!("send to dead rank returned: {send:?}");
                };
                assert_eq!(dead, vec![1]);
                assert!(detail.contains("recorded dead"), "detail: {detail}");
                Ok(())
            }
            _ => Ok(()),
        }
    })
    .unwrap();
    assert!(outcomes[1].is_killed());
}

#[test]
fn wait_all_attributes_the_failed_request_and_spares_siblings() {
    let config = cxl(3, 1, RING, HierarchyMode::Off).with_faults(vec![FaultPlan {
        victim: 2,
        trigger: FaultTrigger::NthSend(1),
    }]);
    let outcomes = Universe::run_ft(config, |comm| {
        comm.set_errhandler(ErrHandler::ErrorsReturn);
        match comm.rank() {
            2 => comm.send(0, 9, b"dying breath"), // dies at entry
            1 => comm.send(0, 7, b"alive"),
            _ => {
                let mut reqs = vec![comm.irecv(Some(1), Some(7))?, comm.irecv(Some(2), Some(9))?];
                let err = match comm.wait_all(&mut reqs) {
                    Ok(_) => panic!("wait_all completed despite dead source"),
                    Err(e) => e,
                };
                let MpiError::ProcFailed { ctx, dead, detail } = err else {
                    panic!("wait_all returned: {err}");
                };
                assert_eq!(ctx, 0);
                assert_eq!(dead, vec![2]);
                assert!(detail.contains("request #1"), "detail: {detail}");
                // After acknowledging the failure, the sibling receive from
                // the live rank stays completable.
                comm.failure_ack();
                let status = comm.wait(&mut reqs[0])?;
                assert_eq!(status.source, 1);
                assert_eq!(reqs[0].take_data()?, b"alive");
                Ok(())
            }
        }
    })
    .unwrap();
    assert!(outcomes[2].is_killed());
}

#[test]
fn wait_any_and_test_all_attribute_the_failed_request() {
    let config = cxl(3, 1, RING, HierarchyMode::Off).with_faults(vec![FaultPlan {
        victim: 2,
        trigger: FaultTrigger::NthSend(1),
    }]);
    let outcomes = Universe::run_ft(config, |comm| {
        comm.set_errhandler(ErrHandler::ErrorsReturn);
        match comm.rank() {
            2 => comm.send(0, 9, b"dying breath"),
            1 => comm.send(0, 7, b"alive"),
            _ => {
                let mut reqs = vec![comm.irecv(Some(1), Some(7))?, comm.irecv(Some(2), Some(9))?];
                // wait_any completes the live sibling (in whichever order the
                // race lands) and pins the failure on the dead-source request
                // by slice index.
                let err = loop {
                    match comm.wait_any(&mut reqs) {
                        Ok((0, status)) => {
                            assert_eq!(status.source, 1);
                            assert_eq!(reqs[0].take_data()?, b"alive");
                        }
                        Ok((i, _)) => panic!("dead-source request #{i} completed"),
                        Err(e) => break e,
                    }
                };
                let MpiError::ProcFailed { dead, detail, .. } = err else {
                    panic!("wait_any returned: {err}");
                };
                assert_eq!(dead, vec![2]);
                assert!(detail.contains("request #1"), "detail: {detail}");
                comm.failure_ack();
                // test_all pins a fresh dead-source receive the same way.
                let mut rest = vec![comm.irecv(Some(2), Some(4))?];
                let err = loop {
                    match comm.test_all(&mut rest) {
                        Ok(Some(_)) => panic!("dead-source request completed"),
                        Ok(None) => std::hint::spin_loop(),
                        Err(e) => break e,
                    }
                };
                let MpiError::ProcFailed { dead, detail, .. } = err else {
                    panic!("test_all returned: {err}");
                };
                assert_eq!(dead, vec![2]);
                assert!(detail.contains("request #0"), "detail: {detail}");
                Ok(())
            }
        }
    })
    .unwrap();
    assert!(outcomes[2].is_killed());
}

#[test]
fn failure_ack_restores_p2p_but_collectives_stay_failed() {
    let config = cxl(3, 1, RING, HierarchyMode::Off).with_faults(vec![FaultPlan {
        victim: 2,
        trigger: FaultTrigger::NthSend(1),
    }]);
    let outcomes = Universe::run_ft(config, |comm| {
        comm.set_errhandler(ErrHandler::ErrorsReturn);
        if comm.rank() == 2 {
            return comm.send(0, 9, b"dying breath");
        }
        // Both survivors: observe the failure, acknowledge it, then
        // point-to-point between live ranks works again — while collectives
        // on the damaged communicator keep failing until a shrink.
        let acked = match comm.recv_owned(Some(2), Some(9)) {
            Err(MpiError::ProcFailed { .. }) => comm.failure_ack(),
            Err(e) => return Err(e),
            Ok(_) => panic!("received data the victim never sent"),
        };
        assert_eq!(acked, vec![2]);
        let peer = 1 - comm.rank();
        comm.send(peer, 5, b"still here")?;
        let (_, data) = comm.recv_owned(Some(peer), Some(5))?;
        assert_eq!(data, b"still here");
        let mut v = [1u64];
        let coll = comm.allreduce(&mut v, ReduceOp::Sum);
        assert!(
            matches!(
                coll,
                Err(MpiError::ProcFailed { .. }) | Err(MpiError::Revoked(_))
            ),
            "collective on damaged comm returned: {coll:?}"
        );
        // shrink() repairs it.
        let mut shrunk = comm.shrink()?;
        let mut v = [shrunk.world_rank() as u64];
        shrunk.allreduce(&mut v, ReduceOp::Sum)?;
        assert_eq!(v[0], 1);
        Ok(())
    })
    .unwrap();
    assert!(outcomes[2].is_killed());
}

#[test]
fn shrink_invalidates_plan_caches_and_counts_it() {
    // Satellite of the recovery path: shrinking must drop the communicator's
    // cached collective plans (their schedules embed the dead membership) and
    // the drops are observable in RankReport::plan_cache.
    let config = cxl(4, 1, RING, HierarchyMode::Off).with_faults(vec![FaultPlan {
        victim: 3,
        trigger: FaultTrigger::NthSend(2),
    }]);
    let outcomes = Universe::run_ft(config, |comm| ulfm_body(comm, ROUNDS)).unwrap();
    for outcome in &outcomes {
        if let FtOutcome::Survived(_, report) = outcome {
            assert!(
                report.plan_cache.invalidations >= 1,
                "rank {}: no plan-cache invalidation recorded after shrink: {:?}",
                report.rank,
                report.plan_cache
            );
        }
    }
    assert!(outcomes[3].is_killed());
}
