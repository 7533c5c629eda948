//! The rendezvous data path of the CXL transport: a message longer than one
//! cell on a promoted lazy queue pair is one request-to-send cell through the
//! ring plus a payload streamed through the pair's lane. The suite runs the
//! small test geometry (1 KiB cells, 4 per ring, so a lane holds 4 KiB) and
//! pins what the protocol must keep: MPI matching and ordering, bytes intact
//! on the direct and the staged receive path, no hang on a dead sender, a
//! byte-identical chunked fallback when no lane can be created, and virtual
//! clocks that do not depend on host scheduling. It also holds the regression
//! test for the non-overtaking rule of `wait_all`.

mod common;

use cmpi::mpi::{
    Comm, ConnMode, ErrHandler, FaultPlan, FaultTrigger, FtOutcome, MpiError, ProgressMode,
    Request, Result, TransportConfig, Universe, UniverseConfig, ANY_SOURCE, ANY_TAG,
};
use common::{configs, force_ring, matrix_hosts};

const CELL: usize = 1024;
const CELLS: usize = 4;
/// Bytes a lane holds before the sender must wait for the receiver.
const CAPACITY: usize = CELL * CELLS;
/// One cell, one byte more, a non-multiple, exactly the lane, several laps.
const SIZES: [usize; 5] = [CELL, CELL + 1, 3 * CELL + 17, CAPACITY, 4 * CAPACITY + 1];

/// The lazy CXL transport with the small test geometry.
fn lazy(ranks: usize) -> UniverseConfig {
    let config = UniverseConfig::cxl_small(ranks).with_hosts(matrix_hosts());
    let TransportConfig::CxlShm(c) = &config.transport else {
        unreachable!("cxl_small is a CXL config");
    };
    assert_eq!((c.cell_size, c.cells_per_queue), (CELL, CELLS));
    config
}

/// Deterministic payload: every `(len, stamp)` pair is a different byte string.
fn payload(len: usize, stamp: u64) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(31) ^ (i >> 8) ^ stamp.wrapping_mul(0x9E37_79B9)) as u8)
        .collect()
}

/// FNV-1a, folded over everything a rank received, in order.
fn fold(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest = (*digest ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// Small ping-pongs between `a` and `b`: past the promotion threshold in both
/// directions, so the next message longer than a cell creates the lane.
fn promote(comm: &mut Comm, a: usize, b: usize) -> Result<()> {
    let me = comm.rank();
    let mut byte = [0u8; 1];
    for _ in 0..6 {
        if me == a {
            comm.send(b, 99, &[1])?;
            comm.recv(Some(b), Some(99), &mut byte)?;
        } else if me == b {
            comm.recv(Some(a), Some(99), &mut byte)?;
            comm.send(a, 99, &[1])?;
        }
    }
    Ok(())
}

#[test]
fn every_size_through_every_p2p_form() {
    let config = lazy(2).with_coll_tuning(force_ring());
    let reports = Universe::run(config, |comm: &mut Comm| {
        let me = comm.rank();
        let peer = 1 - me;
        promote(comm, 0, 1)?;
        for (k, &size) in SIZES.iter().enumerate() {
            let stamp = k as u64;
            let mut buf = vec![0u8; size];

            // Blocking.
            if me == 0 {
                comm.send(1, 1, &payload(size, stamp))?;
            } else {
                let st = comm.recv(Some(0), Some(1), &mut buf)?;
                assert_eq!((st.source, st.tag, st.len), (0, 1, size));
                assert_eq!(buf, payload(size, stamp), "blocking, {size} B");
            }

            // isend + irecv_into, in the opposite direction.
            if me == 1 {
                let mut req = comm.isend(0, 2, &payload(size, stamp + 100))?;
                comm.wait(&mut req)?;
            } else {
                let mut req = comm.irecv_into(Some(1), Some(2), vec![0u8; size])?;
                comm.wait(&mut req)?;
                assert_eq!(req.take_data()?, payload(size, stamp + 100), "i*, {size} B");
            }

            // sendrecv: both directions in one call.
            let mine = payload(size, stamp + 200 + me as u64);
            let (st, got) = comm.sendrecv(peer, 3, &mine, peer, 3)?;
            assert_eq!(st.len, size);
            assert_eq!(got, payload(size, stamp + 200 + peer as u64), "sendrecv");

            // A persistent collective on the ring path drives the same
            // message through the progress engine's resumable send, twice.
            let mut req = comm.bcast_init(1, &payload(size, stamp + 300))?;
            for _ in 0..2 {
                comm.start(&mut req)?;
                comm.wait(&mut req)?;
                assert_eq!(
                    req.read_result::<u8>()?,
                    payload(size, stamp + 300),
                    "bcast"
                );
            }
            req.release()?;
        }
        Ok(comm.stats())
    })
    .unwrap();
    // Everything above a cell went through the lane, as one message each.
    for (stats, report) in &reports {
        // Four sizes above a cell; rank 0 sends two of each, rank 1 four.
        assert!(stats.rdv_msgs >= 2 * 4, "{stats:?}");
        assert!(stats.rdv_bytes > stats.rdv_msgs * CELL as u64);
        assert!(stats.rdv_segments > stats.rdv_msgs);
        assert_eq!(stats.rdv_fallbacks, 0);
        assert_eq!(
            report.stats.rdv_msgs, stats.rdv_msgs,
            "RankReport carries it"
        );
    }
    let sent: u64 = reports.iter().map(|(s, _)| s.msgs_sent).sum();
    let received: u64 = reports.iter().map(|(s, _)| s.msgs_received).sum();
    assert_eq!(
        sent, received,
        "a rendezvous message counts once on each side"
    );
}

#[test]
fn one_doorbell_ring_per_rendezvous_message() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let size = 4 * CAPACITY + 1;
        if comm.rank() == 0 {
            let before = comm.stats();
            comm.send(1, 1, &payload(size, 7))?;
            let after = comm.stats();
            assert_eq!(after.msgs_sent - before.msgs_sent, 1);
            assert_eq!(after.bytes_sent - before.bytes_sent, size as u64);
            assert_eq!(after.rdv_msgs - before.rdv_msgs, 1);
            assert_eq!(after.rdv_bytes - before.rdv_bytes, size as u64);
            assert_eq!(
                after.rdv_segments - before.rdv_segments,
                size.div_ceil(CELL) as u64
            );
            assert_eq!(after.doorbell_rings - before.doorbell_rings, 1);
        } else {
            let before = comm.stats();
            let mut buf = vec![0u8; size];
            comm.recv(Some(0), Some(1), &mut buf)?;
            let after = comm.stats();
            assert_eq!(buf, payload(size, 7));
            assert_eq!(after.msgs_received - before.msgs_received, 1);
            assert_eq!(after.bytes_received - before.bytes_received, size as u64);
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn a_slow_receiver_stalls_the_sender_in_virtual_time() {
    let reports = Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let size = 3 * CAPACITY;
        if comm.rank() == 0 {
            comm.send(1, 1, &payload(size, 1))?;
        } else {
            // The receiver's clock runs far ahead: every slot it frees is
            // freed "later" than the sender wanted it.
            comm.advance_clock(5e6);
            let mut buf = vec![0u8; size];
            comm.recv(Some(0), Some(1), &mut buf)?;
            assert_eq!(buf, payload(size, 1));
        }
        Ok((comm.stats(), comm.clock_ns()))
    })
    .unwrap();
    let (sender, sender_clock) = reports[0].0;
    assert!(sender.rdv_stalls > 0, "{sender:?}");
    assert!(sender_clock > 5e6, "the stall was charged: {sender_clock}");
}

#[test]
fn wildcards_match_rendezvous_messages() {
    Universe::run(lazy(3), |comm: &mut Comm| {
        promote(comm, 1, 0)?;
        promote(comm, 2, 0)?;
        let size = 2 * CAPACITY + 3;
        match comm.rank() {
            0 => {
                let mut seen = [false; 3];
                for _ in 0..2 {
                    let mut buf = vec![0u8; size];
                    let st = comm.recv(ANY_SOURCE, ANY_TAG, &mut buf)?;
                    assert_eq!(st.tag, 10 + st.source as i32);
                    assert_eq!(buf, payload(size, st.source as u64));
                    seen[st.source] = true;
                }
                assert_eq!(seen, [false, true, true]);
            }
            me => comm.send(0, 10 + me as i32, &payload(size, me as u64))?,
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn unexpected_request_to_send_drains_to_staging() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let (first, second) = (2 * CAPACITY + 5, CELL + 1);
        if comm.rank() == 0 {
            // `first` fits no lane: the send cannot finish unless the
            // receiver drains it while looking for `second`.
            comm.send(1, 1, &payload(first, 1))?;
            comm.send(1, 2, &payload(second, 2))?;
            // One that fits: the send completes with no receive posted at
            // all, and the 1-byte message behind it releases the receiver.
            comm.send(1, 3, &payload(CAPACITY, 3))?;
            comm.send(1, 4, &[1])?;
        } else {
            let mut buf = vec![0u8; first];
            let st = comm.recv(Some(0), Some(2), &mut buf)?;
            assert_eq!(st.len, second);
            assert_eq!(
                buf[..second],
                payload(second, 2),
                "matched before the first"
            );
            let st = comm.recv(Some(0), Some(1), &mut buf)?;
            assert_eq!(st.len, first);
            assert_eq!(buf, payload(first, 1), "staged bytes intact");
            comm.recv(Some(0), Some(4), &mut buf)?;
            let st = comm.recv(Some(0), Some(3), &mut buf)?;
            assert_eq!(buf[..st.len], payload(CAPACITY, 3), "posted late");
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn small_large_small_on_one_selector_arrive_in_order() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let lens = [8, 3 * CELL, 8, CAPACITY + 1, 1, CELL, CELL + 1];
        if comm.rank() == 0 {
            for (i, &len) in lens.iter().enumerate() {
                comm.send(1, 5, &payload(len, i as u64))?;
            }
        } else {
            let mut buf = vec![0u8; CAPACITY + 1];
            for (i, &len) in lens.iter().enumerate() {
                let st = comm.recv(Some(0), Some(5), &mut buf)?;
                assert_eq!(st.len, len, "message {i}");
                assert_eq!(buf[..len], payload(len, i as u64), "message {i}");
            }
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn large_messages_cross_in_both_directions() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let size = 4 * CAPACITY + 1;
        for round in 0..3u64 {
            // Both ranks sit in a send the other must drain.
            let mut recv = comm.irecv_into(Some(peer), Some(6), vec![0u8; size])?;
            let mut send = comm.isend(peer, 6, &payload(size, round * 2 + me as u64))?;
            comm.wait(&mut send)?;
            comm.wait(&mut recv)?;
            assert_eq!(recv.take_data()?, payload(size, round * 2 + peer as u64));
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn duplicated_communicators_stay_isolated() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let mut dup = comm.comm_dup()?;
        let size = CAPACITY + 9;
        if comm.rank() == 0 {
            comm.send(1, 5, &payload(size, 1))?;
            dup.send(1, 5, &payload(size, 2))?;
        } else {
            // Same source and tag: only the context tells them apart, and
            // the world message is ahead in the ring.
            let mut buf = vec![0u8; size];
            dup.recv(Some(0), Some(5), &mut buf)?;
            assert_eq!(buf, payload(size, 2));
            comm.recv(Some(0), Some(5), &mut buf)?;
            assert_eq!(buf, payload(size, 1));
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn truncation_consumes_the_message_and_leaves_the_pair_usable() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let size = 3 * CELL;
        if comm.rank() == 0 {
            comm.send(1, 1, &payload(size, 1))?;
            comm.send(1, 1, &payload(size, 2))?;
        } else {
            let mut short = vec![0u8; CELL + 1];
            match comm.recv(Some(0), Some(1), &mut short) {
                Err(MpiError::Truncation {
                    message_len,
                    buffer_len,
                }) => assert_eq!((message_len, buffer_len), (size, CELL + 1)),
                other => panic!("expected truncation, got {other:?}"),
            }
            let mut buf = vec![0u8; size];
            comm.recv(Some(0), Some(1), &mut buf)?;
            assert_eq!(buf, payload(size, 2), "the next message is whole");
        }
        Ok(())
    })
    .unwrap();
}

/// Rank 0 dies per `trigger` while rank 1 waits for its large message: the
/// receiver must see the failure, never hang.
fn receiver_survives(trigger: FaultTrigger) {
    let config = lazy(2).with_faults(vec![FaultPlan { victim: 0, trigger }]);
    let outcomes = Universe::run_ft(config, |comm: &mut Comm| {
        comm.set_errhandler(ErrHandler::ErrorsReturn);
        promote(comm, 0, 1)?;
        let size = 4 * CAPACITY;
        if comm.rank() == 0 {
            comm.send(1, 1, &payload(size, 1))?;
            Ok(None)
        } else {
            let mut buf = vec![0u8; size];
            Ok(Some(comm.recv(Some(0), Some(1), &mut buf)))
        }
    })
    .unwrap();
    assert!(outcomes[0].is_killed(), "{trigger:?}");
    match &outcomes[1] {
        FtOutcome::Survived(Some(Err(MpiError::ProcFailed { dead, .. })), _) => {
            assert_eq!(dead, &[0], "{trigger:?}")
        }
        FtOutcome::Survived(Some(Err(MpiError::PeerDead(_))), _) => {}
        other => panic!("{trigger:?}: receiver saw {other:?}"),
    }
}

#[test]
fn sender_death_at_the_request_to_send_or_mid_stream_fails_the_receiver() {
    // `promote` is six sends; the seventh is the request-to-send.
    receiver_survives(FaultTrigger::NthSend(7));
    // Sixteen segments: die entering the sixth, with five already published.
    receiver_survives(FaultTrigger::NthPublish(6));
}

/// A script with large and small messages, wildcards and crossing traffic;
/// returns each rank's digest of everything it received, and its counters.
fn digest_script(config: UniverseConfig) -> Vec<(u64, cmpi::mpi::transport::TransportStats)> {
    Universe::run(config, |comm: &mut Comm| {
        let (me, n) = (comm.rank(), comm.size());
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for round in 0..8u64 {
            let size = [8, CELL, CELL + 1, 2 * CAPACITY + 3][round as usize % 4];
            let (right, left) = ((me + 1) % n, (me + n - 1) % n);
            let mine = payload(size, round * 16 + me as u64);
            let (st, got) = comm.sendrecv(right, 1, &mine, left, 1)?;
            assert_eq!(st.len, size);
            fold(&mut digest, &got);
            if me == 0 {
                let mut buf = vec![0u8; 3 * CAPACITY];
                for _ in 1..n {
                    let st = comm.recv(ANY_SOURCE, Some(100 + round as i32), &mut buf)?;
                    assert_eq!(buf[..st.len], payload(st.len, st.source as u64));
                    // Arrival order within a round is not fixed: fold
                    // commutatively.
                    digest = digest.wrapping_add(st.len as u64 * 31 + st.source as u64);
                }
            } else {
                let size = (me + 1) * CELL + me;
                comm.send(0, 100 + round as i32, &payload(size, me as u64))?;
            }
        }
        Ok((digest, comm.stats()))
    })
    .unwrap()
    .into_iter()
    .map(|(out, _)| out)
    .collect()
}

#[test]
fn eager_and_lazy_deliver_the_same_bytes() {
    let lazy_out = digest_script(lazy(3));
    let eager_out = digest_script(lazy(3).with_conn_mode(ConnMode::Eager));
    for (rank, (l, e)) in lazy_out.iter().zip(&eager_out).enumerate() {
        assert_eq!(l.0, e.0, "rank {rank} digest");
        assert!(l.1.rdv_msgs > 0, "lazy took the lane: {:?}", l.1);
        assert_eq!(e.1.rdv_msgs, 0, "eager is the chunked-cell oracle");
        assert_eq!(e.1.rdv_fallbacks, 0);
    }
}

#[test]
fn no_room_for_a_lane_falls_back_to_chunks_byte_identically() {
    // 64 KiB cells × 40 make a 2.5 MiB lane, more than the slack any pool
    // rounding leaves once the headroom is zero: promotion still succeeds
    // (queue pairs are provisioned, and with the data plane pinned to ring no
    // exposure window competes for their space), lane creation cannot.
    let geometry = |headroom: usize| {
        let mut config = UniverseConfig::cxl_small(2)
            .with_hosts(matrix_hosts())
            .with_coll_tuning(force_ring());
        if let TransportConfig::CxlShm(c) = &mut config.transport {
            c.cell_size = 64 * 1024;
            c.cells_per_queue = 40;
            c.srq_cells = 4;
            c.window_headroom = headroom;
        }
        config
    };
    let script = |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (k, size) in [64 * 1024 + 1, 200 * 1024, 8, 64 * 1024]
            .into_iter()
            .enumerate()
        {
            let peer = 1 - comm.rank();
            let mine = payload(size, k as u64 * 2 + comm.rank() as u64);
            let (_, got) = comm.sendrecv(peer, 1, &mine, peer, 1)?;
            assert_eq!(got, payload(size, k as u64 * 2 + peer as u64));
            fold(&mut digest, &got);
        }
        Ok((digest, comm.stats()))
    };
    let tight = Universe::run(geometry(0), script).unwrap();
    // Two ranks share half the headroom: 4 MiB each holds the one lane.
    let roomy = Universe::run(geometry(16 << 20), script).unwrap();
    for ((t, _), (r, _)) in tight.iter().zip(&roomy) {
        assert_eq!(t.0, r.0, "same bytes either way");
        assert_eq!(t.1.rdv_msgs, 0, "{:?}", t.1);
        assert_eq!(t.1.rdv_fallbacks, 2, "both large messages were counted");
        assert_eq!(r.1.rdv_msgs, 2);
        assert_eq!(r.1.rdv_fallbacks, 0);
        assert_eq!(t.1.qps_established, 1, "the pair was promoted regardless");
    }
}

#[test]
fn sendrecv_costs_one_latency_not_two() {
    // Both sides send first: a halo exchange is one one-way latency. (That
    // it cannot deadlock on messages larger than the ring or the lane is what
    // the ring of `digest_script` and the exchanges below run into.)
    let reports = Universe::run(lazy(2), |comm: &mut Comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        promote(comm, 0, 1)?;
        let mut buf = [0u8; 256];
        let start = comm.clock_ns();
        for _ in 0..4 {
            if me == 0 {
                comm.send(1, 1, &buf)?;
                comm.recv(Some(1), Some(1), &mut buf)?;
            } else {
                comm.recv(Some(0), Some(1), &mut buf)?;
                comm.send(0, 1, &buf)?;
            }
        }
        let one_way = (comm.clock_ns() - start) / 8.0;
        let start = comm.clock_ns();
        for _ in 0..4 {
            let (st, got) = comm.sendrecv(peer, 2, &[7u8; 256], peer, 2)?;
            assert_eq!((st.len, got), (256, vec![7u8; 256]));
        }
        Ok((one_way, (comm.clock_ns() - start) / 4.0))
    })
    .unwrap();
    for (rank, ((one_way, exchange), _)) in reports.iter().enumerate() {
        assert!(
            *exchange < 1.25 * one_way,
            "rank {rank}: exchange {exchange} ns against {one_way} ns one way"
        );
    }
}

#[test]
fn pairwise_exchange_on_eight_ranks() {
    let config = UniverseConfig::cxl_small(8).with_hosts(matrix_hosts());
    let reports = Universe::run(config, |comm: &mut Comm| {
        let me = comm.rank();
        let size = CAPACITY + CELL + 7;
        // Six rounds put every pair past the promotion threshold.
        for round in 0..6u64 {
            for step in 1..8usize {
                let peer = me ^ step;
                let mine = payload(size, round * 64 + (me * 8 + peer) as u64);
                let (st, got) = comm.sendrecv(peer, 1, &mine, peer, 1)?;
                assert_eq!(st.source, peer);
                assert_eq!(got, payload(size, round * 64 + (peer * 8 + me) as u64));
            }
        }
        Ok(comm.stats())
    })
    .unwrap();
    for (stats, _) in reports {
        assert_eq!(stats.qps_established, 7);
        assert!(stats.rdv_msgs >= 7, "{stats:?}");
        assert_eq!(stats.rdv_fallbacks, 0, "1 MiB of headroom holds 56 lanes");
    }
}

/// Lanes come out of the headroom RMA and data-plane windows are provisioned
/// from, so each rank's lane budget keeps all lanes together inside half of
/// it: pairs past the budget chunk, and windows created after every pair has
/// gone large still fit.
#[test]
fn windows_still_fit_after_every_pair_went_large() {
    use cmpi::mpi::queue::QueueGeometry;
    use cmpi::mpi::transport::conn::ConnTable;
    use cmpi::mpi::{CollTuning, DataPlaneMode, HierarchyMode, ReduceOp};

    const RANKS: usize = 8;
    let tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Shm,
        shm_arena_bytes: 4096,
        ..CollTuning::default()
    };
    // 256 KiB of headroom: 128 KiB for 24 lanes (three a rank, 56 asked
    // for), 128 KiB for two exposure windows and an RMA window of ≈ 40 KiB.
    let config = common::with_window_headroom(UniverseConfig::cxl_small(RANKS), 256 * 1024)
        .with_hosts(matrix_hosts())
        .with_coll_tuning(tuning);
    let TransportConfig::CxlShm(c) = &config.transport else {
        unreachable!("cxl_small is a CXL config");
    };
    let geometry = QueueGeometry {
        cell_payload: CELL,
        cells: CELLS,
    };
    let budget = ConnTable::lane_budget(RANKS, geometry, c) as u64;
    assert!((1..7).contains(&budget), "the test wants a binding budget");
    let reports = Universe::run(config, |comm: &mut Comm| {
        let me = comm.rank();
        for round in 0..7u64 {
            // Six small rounds promote every pair; the seventh goes large.
            let size = if round < 6 { 1 } else { CAPACITY + 9 };
            for step in 1..RANKS {
                let peer = me ^ step;
                let mine = payload(size, round * 64 + (me * 8 + peer) as u64);
                let (_, got) = comm.sendrecv(peer, 1, &mine, peer, 1)?;
                assert_eq!(got, payload(size, round * 64 + (peer * 8 + me) as u64));
            }
        }
        let stats = comm.stats();
        // A data-plane window and an RMA window, created now, both work.
        let mut dup = comm.comm_dup()?;
        let mut v = vec![1u64; 16];
        dup.allreduce(&mut v, ReduceOp::Sum)?;
        assert_eq!(v, [RANKS as u64; 16]);
        assert_eq!(dup.last_coll_algorithm(), "allreduce/shm");
        let win = comm.win_allocate(4096)?;
        comm.win_fence(win)?;
        comm.put(win, (me + 1) % RANKS, 0, &[me as u8; 64])?;
        comm.win_fence(win)?;
        let mut got = [0u8; 64];
        comm.win_read_local(win, 0, &mut got)?;
        assert_eq!(got, [((me + RANKS - 1) % RANKS) as u8; 64]);
        comm.win_free(win)?;
        Ok(stats)
    })
    .unwrap();
    for (stats, report) in reports {
        assert_eq!(stats.qps_established, 7);
        assert_eq!(stats.rdv_msgs, budget, "{stats:?}");
        assert_eq!(stats.rdv_fallbacks, 7 - budget, "{stats:?}");
        let dp = &report.data_plane;
        assert_eq!((dp.window_setups, dp.window_failures), (2, 0), "{dp:?}");
    }
}

/// The `p2p_large` stream script of the benchmark at the test geometry:
/// windows of four messages of {4, 16, 64} cells, a 1-byte ack per window,
/// then ping-pong. Returns every rank's final virtual clock.
fn stream_script_clocks() -> Vec<f64> {
    Universe::run(lazy(2), |comm: &mut Comm| {
        let me = comm.rank();
        promote(comm, 0, 1)?;
        let mut ack = [0u8; 1];
        for cells in [4usize, 16, 64] {
            let size = cells * CELL;
            let data = payload(size, cells as u64);
            let mut buf = vec![0u8; size];
            for _window in 0..3 {
                for _ in 0..4 {
                    if me == 0 {
                        comm.send(1, 2, &data)?;
                    } else {
                        comm.recv(Some(0), Some(2), &mut buf)?;
                    }
                }
                if me == 0 {
                    comm.recv(Some(1), Some(3), &mut ack)?;
                } else {
                    comm.send(0, 3, &[1])?;
                }
            }
        }
        let size = 16 * CELL;
        let data = payload(size, 9);
        let mut buf = vec![0u8; size];
        for _ in 0..4 {
            if me == 0 {
                comm.send(1, 4, &data)?;
                comm.recv(Some(1), Some(4), &mut buf)?;
            } else {
                comm.recv(Some(0), Some(4), &mut buf)?;
                comm.send(0, 4, &data)?;
            }
        }
        Ok(())
    })
    .unwrap()
    .into_iter()
    .map(|(_, report)| report.clock_ns)
    .collect()
}

#[test]
fn large_message_virtual_time_is_deterministic() {
    let first = stream_script_clocks();
    for run in 1..4 {
        let again = stream_script_clocks();
        for (rank, (a, b)) in first.iter().zip(&again).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "run {run}, rank {rank}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn wait_all_keeps_same_selector_receives_in_posted_order() {
    const N: usize = 16;
    let len = |i: usize| if i % 3 == 1 { 2 * CELL + i } else { 8 };
    for mode in [ProgressMode::Polling, ProgressMode::Thread] {
        for (label, config) in configs(2) {
            Universe::run(config.with_progress_mode(mode), move |comm: &mut Comm| {
                for round in 0..4u64 {
                    if comm.rank() == 0 {
                        for i in 0..N {
                            comm.send(1, 7, &payload(len(i), round * 100 + i as u64))?;
                        }
                    } else {
                        let mut reqs: Vec<Request> = (0..N)
                            .map(|_| comm.irecv_into(Some(0), Some(7), vec![0u8; 2 * CELL + N]))
                            .collect::<Result<_>>()?;
                        // Slice order is not post order: the rule is about
                        // the latter.
                        reqs.reverse();
                        let statuses = comm.wait_all(&mut reqs)?;
                        reqs.reverse();
                        for (i, req) in reqs.iter_mut().enumerate() {
                            assert_eq!(statuses[N - 1 - i].len, len(i), "{label} {mode:?}");
                            assert_eq!(
                                req.take_data()?,
                                payload(len(i), round * 100 + i as u64),
                                "{label} {mode:?}: message {i} must land in request {i}"
                            );
                        }
                    }
                    comm.barrier()?;
                }
                Ok(())
            })
            .unwrap();
        }
    }
}

/// Selector overlap is not message match: a receive posted later takes a
/// message the earlier, still-pending receives do not match — under
/// `wait_any`, `test_any` and `wait_all` — and yields a message they do.
#[test]
fn a_later_receive_takes_what_earlier_ones_do_not_match() {
    for mode in [ProgressMode::Polling, ProgressMode::Thread] {
        for (label, config) in configs(2) {
            Universe::run(config.with_progress_mode(mode), move |comm: &mut Comm| {
                let large = payload(2 * CELL + 5, 1);
                if comm.rank() == 0 {
                    // Round 1: only a tag-7 message exists.
                    comm.send(1, 7, &large)?;
                    comm.recv(Some(1), Some(90), &mut [0u8; 1])?;
                    comm.send(1, 5, &[5])?;
                    // Round 2: tag 9 (for the wildcard), then tag 5 twice.
                    comm.barrier()?;
                    comm.send(1, 9, &[9])?;
                    comm.send(1, 5, &[51])?;
                    comm.send(1, 5, &large)?;
                } else {
                    let exact = comm.irecv_into(Some(0), Some(5), vec![0u8; 8])?;
                    let any = comm.irecv_into(Some(0), ANY_TAG, vec![0u8; 4 * CELL])?;
                    let mut reqs = vec![exact, any];
                    assert!(comm.iprobe(Some(0), Some(5))?.is_none());
                    let (i, status) = comm.wait_any(&mut reqs)?;
                    assert_eq!((i, status.tag, status.len), (1, 7, large.len()), "{label}");
                    assert_eq!(reqs[1].take_data()?, large);
                    // The earlier receive is still completable afterwards.
                    assert!(comm.test_any(&mut reqs)?.is_none());
                    comm.send(0, 90, &[0])?;
                    let (i, status) = comm.wait_any(&mut reqs)?;
                    assert_eq!((i, status.tag), (0, 5), "{label}");
                    assert_eq!(reqs[0].take_data()?, [5]);

                    // Round 2, everything already arrived and waited in slice
                    // order [wildcard-last-posted, exact, exact-first-posted]:
                    // the two tag-5 messages go to the tag-5 receives in post
                    // order, the wildcard — posted between them — gets tag 9.
                    let first = comm.irecv_into(Some(0), Some(5), vec![0u8; 4 * CELL])?;
                    let any = comm.irecv_into(ANY_SOURCE, ANY_TAG, vec![0u8; 4 * CELL])?;
                    let second = comm.irecv_into(Some(0), Some(5), vec![0u8; 4 * CELL])?;
                    comm.barrier()?;
                    while comm.iprobe(Some(0), Some(5))?.is_none() {
                        std::thread::yield_now();
                    }
                    let mut reqs = vec![second, any, first];
                    let statuses = comm.wait_all(&mut reqs)?;
                    let tags: Vec<_> = statuses.iter().map(|s| s.tag).collect();
                    assert_eq!(tags, [5, 9, 5], "{label} {mode:?}");
                    assert_eq!(reqs[2].take_data()?, [51], "{label}: first tag-5 receive");
                    assert_eq!(reqs[1].take_data()?, [9]);
                    assert_eq!(reqs[0].take_data()?, large, "{label}: second tag-5 receive");
                }
                comm.barrier()
            })
            .unwrap();
        }
    }
}
