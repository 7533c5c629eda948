//! Nonblocking collectives end-to-end: every `i*` operation must produce
//! results byte-identical to its blocking counterpart (the two share one
//! compiled schedule per algorithm, and this suite pins that equivalence on
//! n = 3, 5, 6, 7 across both transports, flat and two-level, with payloads
//! on both sides of the flat crossovers),
//! requests must complete under shuffled `wait_any`/`test_all` driving mixed
//! with p2p traffic, and a rank death must abort parked collective and RMA
//! waits with `PeerDead` instead of hanging (the PR 2 poison-flag guarantee,
//! extended to the progress engine).

use cmpi::mpi::coll::{
    ALLGATHER_BRUCK_MAX_BYTES, ALLREDUCE_RABENSEIFNER_MIN_BYTES, BCAST_SCATTER_ALLGATHER_MIN_BYTES,
    REDUCE_SCATTER_DIRECT_MIN_BYTES,
};
use cmpi::mpi::pod::bytes_of;
use cmpi::mpi::{Comm, MpiError, ReduceOp, Request, Universe, UniverseConfig};

mod common;
use common::{configs, force_hier, force_ring, past};

/// Element counts just past the flat crossovers among `n` ranks: a `u64`
/// bcast, an `i64` allreduce, a `u32` allgather block and an `i64`
/// reduce-scatter block.
fn past_crossovers(n: usize) -> [usize; 4] {
    [
        past::<u64>(BCAST_SCATTER_ALLGATHER_MIN_BYTES),
        past::<i64>(ALLREDUCE_RABENSEIFNER_MIN_BYTES),
        past::<u32>(ALLGATHER_BRUCK_MAX_BYTES),
        past::<i64>(REDUCE_SCATTER_DIRECT_MIN_BYTES / n),
    ]
}

/// Deterministic split-mix style generator (no external crates).
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

#[test]
fn every_i_collective_matches_blocking_counterpart() {
    // Payloads on both sides of the crossovers reach every algorithm branch
    // (binomial and scatter-allgather bcast, Bruck and ring allgather,
    // recursive-doubling and Rabenseifner allreduce incl. the
    // non-power-of-two fold phases, naive / pairwise reduce-scatter), flat
    // and inside the forced hierarchical compositions: every i* form is
    // pinned against its blocking counterpart — which the adaptive suite
    // separately pins against the flat reference.
    for n in [3usize, 5, 6, 7] {
        for (label, base) in configs(n) {
            for (path, tuning) in [("ring", force_ring()), ("hier", force_hier())] {
                for [bc, ar, ag, rs] in [[9, 33, 3, 5], past_crossovers(n)] {
                    let config = base.clone().with_coll_tuning(tuning);
                    Universe::run(config, move |comm: &mut Comm| {
                        i_collectives_match_blocking(comm, bc, ar, ag, rs)
                    })
                    .unwrap_or_else(|e| panic!("{label} n={n} {path} {bc} u64 bcast: {e}"));
                }
            }
        }
    }
}

/// Every i* collective against its blocking counterpart on `comm`: a bcast
/// of `bc` `u64`, an allreduce of `ar` `i64`, an allgather of `ag` `u32` per
/// rank and a reduce-scatter of `rs` `i64` per rank.
fn i_collectives_match_blocking(
    comm: &mut Comm,
    bc: usize,
    ar: usize,
    ag: usize,
    rs: usize,
) -> Result<(), MpiError> {
    let me = comm.rank();
    let n = comm.size();

    // ibarrier completes on every rank.
    let mut req = comm.ibarrier()?;
    comm.wait(&mut req)?;

    // ibcast == bcast_into (root 1).
    let root_data: Vec<u64> = (0..bc as u64).map(|i| 1000 + i).collect();
    let mut blocking = if me == 1 {
        root_data.clone()
    } else {
        vec![0u64; bc]
    };
    comm.bcast_into(1, &mut blocking)?;
    let contrib = if me == 1 {
        root_data.clone()
    } else {
        vec![0u64; bc]
    };
    let mut req = comm.ibcast_into(1, &contrib)?;
    comm.wait(&mut req)?;
    assert_eq!(req.take_values::<u64>()?, blocking, "ibcast");

    // iallreduce == allreduce (both sizes have enough
    // elements for the Rabenseifner split on every n here).
    let vals: Vec<i64> = (0..ar as i64).map(|i| me as i64 * 1000 + i).collect();
    let mut blocking = vals.clone();
    comm.allreduce(&mut blocking, ReduceOp::Sum)?;
    let mut req = comm.iallreduce(&vals, ReduceOp::Sum)?;
    comm.wait(&mut req)?;
    assert_eq!(req.take_values::<i64>()?, blocking, "iallreduce");

    // iallgather == allgather_into.
    let send: Vec<u32> = (0..ag).map(|i| (me * 10 + i) as u32).collect();
    let mut blocking = vec![0u32; ag * n];
    comm.allgather_into(&send, &mut blocking)?;
    let mut req = comm.iallgather_into(&send)?;
    comm.wait(&mut req)?;
    assert_eq!(req.take_values::<u32>()?, blocking, "iallgather");

    // ireduce_scatter == reduce_scatter.
    let rs: Vec<i64> = (0..rs * n).map(|i| me as i64 * 100 + i as i64).collect();
    let blocking = comm.reduce_scatter(&rs, ReduceOp::Sum)?;
    let mut req = comm.ireduce_scatter(&rs, ReduceOp::Sum)?;
    comm.wait(&mut req)?;
    assert_eq!(req.take_values::<i64>()?, blocking, "ireduce_scatter");

    // igather == gather_into (root 0; non-root yields empty).
    let gsend = [me as f64, me as f64 + 0.5];
    let mut blocking = vec![0.0f64; if me == 0 { 2 * n } else { 0 }];
    comm.gather_into(
        0,
        &gsend,
        if me == 0 {
            Some(&mut blocking[..])
        } else {
            None
        },
    )?;
    let mut req = comm.igather_into(0, &gsend)?;
    comm.wait(&mut req)?;
    let gathered = req.take_values::<f64>()?;
    if me == 0 {
        assert_eq!(gathered, blocking, "igather");
    } else {
        assert!(gathered.is_empty(), "igather non-root");
    }

    // iscatter == scatter_from (root 0).
    let chunks: Option<Vec<u32>> = if me == 0 {
        Some((0..2 * n as u32).collect())
    } else {
        None
    };
    let mut blocking = [0u32; 2];
    comm.scatter_from(0, chunks.as_deref(), &mut blocking)?;
    let mut req = comm.iscatter_from(0, chunks.as_deref(), 2)?;
    comm.wait(&mut req)?;
    assert_eq!(req.take_values::<u32>()?, blocking.to_vec(), "iscatter");

    comm.barrier()
}

#[test]
fn icollectives_complete_via_test_polling_with_overlap_counted() {
    // Completing via `test` polls (no terminal blocking wait doing the work)
    // must both produce the right answer and show up in the progress
    // counters' ops_in_test column — the overlap metric.
    for (label, config) in configs(4) {
        let results = Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank();
            let vals: Vec<u64> = (0..16).map(|i| me as u64 + i).collect();
            let mut expected = vals.clone();
            comm.allreduce(&mut expected, ReduceOp::Sum)?;
            let mut req = comm.iallreduce(&vals, ReduceOp::Sum)?;
            // A pending collective request reports which algorithm its
            // schedule executes (the same label the start recorded).
            assert_eq!(req.coll_algorithm(), Some(comm.last_coll_algorithm()));
            let mut polls = 0u64;
            while comm.test(&mut req)?.is_none() {
                comm.progress()?; // drain the transport while "computing"
                polls += 1;
                assert!(polls < 10_000_000, "test polling never completed");
            }
            assert!(
                req.coll_algorithm().is_none(),
                "label cleared on completion"
            );
            assert_eq!(req.take_values::<u64>()?, expected);
            comm.barrier()?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
        for (_, report) in &results {
            assert_eq!(report.progress.colls_started, 1, "{label}");
            assert_eq!(report.progress.colls_completed, 1, "{label}");
            // Overlap: the schedule advanced outside the terminal wait —
            // from `test` polls in Polling mode, from the background engine
            // in Thread mode (where `test` merely observes the done flag).
            assert!(
                report.progress.ops_in_test + report.progress.ops_in_thread > 0,
                "{label}: no ops serviced outside blocking waits: {:?}",
                report.progress
            );
        }
    }
}

#[test]
fn wildcard_irecv_does_not_steal_collective_traffic() {
    // A fully wildcarded receive is outstanding while an iallreduce runs on
    // the same communicator: the reserved collective tag range keeps the
    // wildcard from matching internal traffic, so the receive must complete
    // with the real user message.
    for (label, config) in configs(4) {
        Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank();
            let vals = [me as u64; 4];
            if me == 0 {
                let wild = comm.irecv(None, None)?;
                let coll = comm.iallreduce(&vals, ReduceOp::Sum)?;
                let mut reqs = vec![wild, coll];
                // Drive both; the wildcard can only finish once rank 1's user
                // send arrives, and it must carry the user payload.
                let mut done = 0;
                while done < 2 {
                    let (i, _) = comm.wait_any(&mut reqs)?;
                    if i == 0 {
                        assert_eq!(reqs[0].take_data()?, vec![7u8; 5]);
                    } else {
                        assert_eq!(reqs[1].take_values::<u64>()?, vec![6u64; 4]);
                    }
                    done += 1;
                }
            } else {
                let mut req = comm.iallreduce(&vals, ReduceOp::Sum)?;
                comm.wait(&mut req)?;
                if me == 1 {
                    comm.send(0, 5, &[7u8; 5])?;
                }
            }
            comm.barrier()?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn random_interleavings_match_blocking_reference() {
    // Property test: random mixes of isend / irecv_into / i* collectives,
    // completed via shuffled wait_any / test_all / per-request test orders,
    // must produce byte-identical results to the blocking reference, on
    // n = 3, 5, 7 and both transports. The op sequence is derived from a
    // shared seed (collective starts must agree across ranks); the
    // *completion* order is derived from a rank-specific seed. Flat with
    // small payloads and with payloads past the crossovers, and two-level.
    for n in [3usize, 5, 7] {
        for (label, base) in configs(n) {
            let small = [2, 5, 2, 2];
            for (tuning, [bc, ar, ag, rs]) in [
                (force_ring(), small),
                (force_ring(), past_crossovers(n)),
                (force_hier(), small),
            ] {
                let config = base.clone().with_coll_tuning(tuning);
                Universe::run(config, move |comm: &mut Comm| {
                    let me = comm.rank();
                    let n = comm.size();
                    let mut shared = Lcg::new((n as u64) << 16 | 0xC0FFEE);
                    let mut local = Lcg::new((me as u64 + 1) * 0x5DEECE66D);
                    for round in 0..4u64 {
                        // --- Blocking references, computed up front. ---
                        let count = ar + shared.below(4) as usize;
                        let ar_vals: Vec<i64> = (0..count)
                            .map(|i| me as i64 * 37 + i as i64 + round as i64)
                            .collect();
                        let mut ar_ref = ar_vals.clone();
                        comm.allreduce(&mut ar_ref, ReduceOp::Sum)?;

                        let second = shared.below(4);
                        let root = shared.below(n as u64) as usize;
                        let extra = shared.below(3) as usize;
                        let (bc, ag, rs) = (bc + extra, ag + extra, rs + extra);
                        // Inputs for the second collective (shared shape,
                        // rank-dependent contents).
                        let bc_data: Vec<u64> = (0..bc).map(|i| (round << 8) + i as u64).collect();
                        let ag_send: Vec<u32> = (0..ag)
                            .map(|i| (me * 100 + i) as u32 + round as u32)
                            .collect();
                        let rs_vals: Vec<i64> = (0..rs * n).map(|i| me as i64 + i as i64).collect();
                        let second_ref: Vec<u8> = match second {
                            0 => {
                                let mut d = if me == root {
                                    bc_data.clone()
                                } else {
                                    vec![0u64; bc]
                                };
                                comm.bcast_into(root, &mut d)?;
                                bytes_of(&d).to_vec()
                            }
                            1 => {
                                let mut g = vec![0u32; ag * n];
                                comm.allgather_into(&ag_send, &mut g)?;
                                bytes_of(&g).to_vec()
                            }
                            2 => {
                                let mine = comm.reduce_scatter(&rs_vals, ReduceOp::Sum)?;
                                bytes_of(&mine).to_vec()
                            }
                            _ => {
                                comm.barrier()?;
                                Vec::new()
                            }
                        };

                        // --- Nonblocking mix: p2p ring + two collectives. ---
                        let right = (me + 1) % n;
                        let left = (me + n - 1) % n;
                        let tag = round as i32;
                        let payload = vec![(me as u8).wrapping_add(round as u8); 16];
                        let expected_p2p = vec![(left as u8).wrapping_add(round as u8); 16];
                        let mut reqs: Vec<Request> = Vec::new();
                        reqs.push(comm.isend(right, tag, &payload)?);
                        reqs.push(comm.irecv_into(Some(left), Some(tag), vec![0u8; 32])?);
                        reqs.push(comm.iallreduce(&ar_vals, ReduceOp::Sum)?);
                        reqs.push(match second {
                            0 => {
                                let contrib = if me == root {
                                    bc_data.clone()
                                } else {
                                    vec![0u64; bc]
                                };
                                comm.ibcast_into(root, &contrib)?
                            }
                            1 => comm.iallgather_into(&ag_send)?,
                            2 => comm.ireduce_scatter(&rs_vals, ReduceOp::Sum)?,
                            _ => comm.ibarrier()?,
                        });

                        // Complete everything under a randomized strategy,
                        // then snapshot results before consumption.
                        let strategy = local.next();
                        // take_data consumes; grab comparisons inline instead:
                        // re-drive completion manually so payloads stay
                        // accessible.
                        match strategy % 3 {
                            0 => {
                                let mut pending = reqs.len();
                                while pending > 0 {
                                    let (i, _) = comm.wait_any(&mut reqs)?;
                                    check_result(
                                        i,
                                        &mut reqs,
                                        &expected_p2p,
                                        &ar_ref,
                                        &second_ref,
                                    )?;
                                    // Consume so wait_any moves past it (the
                                    // send request carries no payload and
                                    // must be released explicitly).
                                    reqs[i].release()?;
                                    pending -= 1;
                                }
                            }
                            1 => {
                                let mut spins = 0u64;
                                while comm.test_all(&mut reqs)?.is_none() {
                                    spins += 1;
                                    assert!(spins < 10_000_000, "test_all stuck");
                                }
                                for i in 0..reqs.len() {
                                    check_result(
                                        i,
                                        &mut reqs,
                                        &expected_p2p,
                                        &ar_ref,
                                        &second_ref,
                                    )?;
                                }
                            }
                            _ => {
                                let mut order: Vec<usize> = (0..reqs.len()).collect();
                                for i in (1..order.len()).rev() {
                                    order.swap(i, local.below(i as u64 + 1) as usize);
                                }
                                let mut spins = 0u64;
                                while order.iter().any(|&i| !reqs[i].is_complete()) {
                                    for &i in &order {
                                        if !reqs[i].is_complete() {
                                            comm.test(&mut reqs[i])?;
                                        }
                                    }
                                    spins += 1;
                                    assert!(spins < 10_000_000, "shuffled test stuck");
                                }
                                for i in 0..reqs.len() {
                                    check_result(
                                        i,
                                        &mut reqs,
                                        &expected_p2p,
                                        &ar_ref,
                                        &second_ref,
                                    )?;
                                }
                            }
                        }
                    }
                    comm.barrier()?;
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
            }
        }
    }
}

/// Assert request `i` of the interleaving mix carries the expected bytes.
/// Layout: 0 = isend (no payload), 1 = irecv_into, 2 = iallreduce,
/// 3 = second collective.
fn check_result(
    i: usize,
    reqs: &mut [Request],
    expected_p2p: &[u8],
    ar_ref: &[i64],
    second_ref: &[u8],
) -> Result<(), MpiError> {
    match i {
        0 => {} // eager send: nothing to take
        1 => assert_eq!(reqs[1].take_data()?, expected_p2p, "p2p payload"),
        2 => assert_eq!(reqs[2].take_values::<i64>()?, ar_ref, "iallreduce"),
        _ => assert_eq!(reqs[3].take_data()?, second_ref, "second collective"),
    }
    Ok(())
}

#[test]
fn reserved_tags_rejected_at_the_api_boundary() {
    // Tags at and above COLL_TAG_BASE belong to the collective layer: they
    // are invisible to wildcard receives and could collide with a live
    // schedule's salted tags, so user p2p must reject them up front.
    use cmpi::mpi::COLL_TAG_BASE;
    let config = UniverseConfig::cxl_small(2);
    Universe::run(config, |comm: &mut Comm| {
        assert!(matches!(
            comm.send(1, COLL_TAG_BASE, &[1]),
            Err(MpiError::ReservedTag(_))
        ));
        assert!(matches!(
            comm.isend(1, COLL_TAG_BASE + 5, &[1]),
            Err(MpiError::ReservedTag(_))
        ));
        assert!(matches!(
            comm.irecv(None, Some(COLL_TAG_BASE)),
            Err(MpiError::ReservedTag(_))
        ));
        assert!(matches!(
            comm.recv_owned(Some(0), Some(COLL_TAG_BASE + 1)),
            Err(MpiError::ReservedTag(_))
        ));
        // The last user tag below the boundary still works end to end.
        if comm.rank() == 0 {
            comm.send(1, COLL_TAG_BASE - 1, b"ok")?;
        } else {
            let (_, d) = comm.recv_owned(Some(0), Some(COLL_TAG_BASE - 1))?;
            assert_eq!(&d, b"ok");
        }
        comm.barrier()?;
        Ok(())
    })
    .unwrap();
}

#[test]
fn wait_all_completes_regardless_of_slice_order() {
    // MPI_Waitall semantics: two outstanding collectives started in the same
    // order everywhere, but waited with *opposite* slice orders on even and
    // odd ranks. wait_all must drive both schedules together — waiting them
    // sequentially in slice order would deadlock.
    for (label, config) in configs(4) {
        Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank();
            let p: Vec<u64> = (0..64).map(|i| me as u64 + i).collect();
            let q: Vec<i64> = (0..48).map(|i| me as i64 * 3 + i).collect();
            let mut ep = p.clone();
            comm.allreduce(&mut ep, ReduceOp::Sum)?;
            let mut eq = q.clone();
            comm.allreduce(&mut eq, ReduceOp::Max)?;
            let rp = comm.iallreduce(&p, ReduceOp::Sum)?;
            let rq = comm.iallreduce(&q, ReduceOp::Max)?;
            let mut reqs = if me.is_multiple_of(2) {
                vec![rp, rq]
            } else {
                vec![rq, rp]
            };
            let statuses = comm.wait_all(&mut reqs)?;
            assert_eq!(statuses.len(), 2);
            let (ip, iq) = if me.is_multiple_of(2) { (0, 1) } else { (1, 0) };
            assert_eq!(reqs[ip].take_values::<u64>()?, ep, "sum allreduce");
            assert_eq!(reqs[iq].take_values::<i64>()?, eq, "max allreduce");
            comm.barrier()?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn concurrent_multichunk_collectives_keep_ring_contiguity() {
    // Two outstanding iallreduces whose messages span many 1 KiB ring cells
    // (and exceed the 4-cell ring capacity of the small CXL config) are
    // driven by alternating test polls with per-rank phase offsets. The
    // engine must finish a chunked send once its first chunk is committed,
    // otherwise the two schedules' chunks would interleave in one SPSC ring
    // and corrupt reassembly (regression guard for the plan `Send` op's
    // commit rule).
    let config = UniverseConfig::cxl_small(4);
    Universe::run(config, |comm: &mut Comm| {
        let me = comm.rank();
        let a: Vec<u64> = (0..2048).map(|i| me as u64 * 1_000_000 + i).collect(); // 16 KiB
        let b: Vec<u64> = (0..1536).map(|i| me as u64 * 2_000_000 + i).collect(); // 12 KiB
        let mut ea = a.clone();
        comm.allreduce(&mut ea, ReduceOp::Sum)?;
        let mut eb = b.clone();
        comm.allreduce(&mut eb, ReduceOp::Sum)?;
        let mut ra = comm.iallreduce(&a, ReduceOp::Sum)?;
        let mut rb = comm.iallreduce(&b, ReduceOp::Sum)?;
        let mut flip = me.is_multiple_of(2);
        let mut spins = 0u64;
        while !(ra.is_complete() && rb.is_complete()) {
            if flip {
                comm.test(&mut ra)?;
            } else {
                comm.test(&mut rb)?;
            }
            flip = !flip;
            spins += 1;
            assert!(spins < 50_000_000, "alternating polls never completed");
        }
        assert_eq!(ra.take_values::<u64>()?, ea, "first multichunk iallreduce");
        assert_eq!(rb.take_values::<u64>()?, eb, "second multichunk iallreduce");
        comm.barrier()?;
        Ok(())
    })
    .unwrap();
}

#[test]
fn poisoned_universe_aborts_parked_iallreduce_wait() {
    // Rank n-1 dies while the survivors are parked in an iallreduce wait that
    // can never complete without it: the poison flag must abort their waits
    // with PeerDead (regression guard for the PR 2 deadlock fix, extended to
    // the progress engine's wait loop).
    for (label, config) in configs(3) {
        let err = Universe::run(config, |comm: &mut Comm| {
            if comm.rank() == 2 {
                // Give the survivors time to park in the collective wait.
                std::thread::sleep(std::time::Duration::from_millis(30));
                return Err(MpiError::Transport("rank 2 gives up".into()));
            }
            let vals = vec![1.0f64; 8];
            let mut req = comm.iallreduce(&vals, ReduceOp::Sum)?;
            match comm.wait(&mut req) {
                Err(MpiError::PeerDead(_)) => Ok(()), // survivor sees the death
                other => panic!("expected PeerDead from parked wait, got {other:?}"),
            }
        })
        .unwrap_err();
        // The runtime reports the root cause, not the survivors' cascade.
        match err {
            MpiError::Transport(msg) => assert!(msg.contains("gives up"), "{label}: {msg}"),
            other => panic!("{label}: unexpected error {other:?}"),
        }
    }
}

#[test]
fn poisoned_universe_aborts_parked_win_wait() {
    // Same guarantee for the RMA exposure epoch: a rank parked in win_wait
    // whose origin dies must get PeerDead, on both transports.
    for (label, config) in configs(2) {
        let err = Universe::run(config, |comm: &mut Comm| {
            let win = comm.win_allocate(64)?;
            if comm.rank() == 1 {
                std::thread::sleep(std::time::Duration::from_millis(30));
                return Err(MpiError::Transport("rank 1 gives up".into()));
            }
            comm.win_post(win, &[1])?;
            match comm.win_wait(win) {
                Err(MpiError::PeerDead(_)) => Ok(()),
                other => panic!("expected PeerDead from win_wait, got {other:?}"),
            }
        })
        .unwrap_err();
        match err {
            MpiError::Transport(msg) => assert!(msg.contains("gives up"), "{label}: {msg}"),
            other => panic!("{label}: unexpected error {other:?}"),
        }
    }
}
