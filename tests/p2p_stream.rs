//! The point-to-point data path of the CXL transport's default (lazy) mode: a
//! promoted pair is one stamped stream per direction, and every message rides
//! it — frame and a payload of at most 32 B in one flag line, up to one cell
//! as one streamed slot, anything longer as further frame-less segments. The
//! suite runs the small test geometry (1 KiB cells, 4 per stream, so a stream
//! holds 4 KiB and hands slots back two at a time) and pins what the protocol
//! must keep: MPI matching and ordering at every framing boundary, bytes
//! intact on the direct and the staged receive path, blocked senders that keep
//! draining their own arrivals, no hang on a dead sender, a byte-identical
//! cold path when no stream can be created, counters that mean what they say,
//! and virtual clocks that do not depend on host scheduling. `ConnMode::Eager`
//! — the paper's chunked-cell protocol — is the oracle the bytes are compared
//! against. It also holds the regression tests for the non-overtaking rule of
//! `wait_all`.

mod common;

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::transport::TransportStats;
use cmpi::mpi::{
    Comm, ConnMode, ErrHandler, FaultPlan, FaultTrigger, FtOutcome, MpiError, ProgressMode,
    Request, Result, Status, TransportConfig, Universe, UniverseConfig, ANY_SOURCE, ANY_TAG,
};
use common::{configs, force_ring, matrix_hosts, p2p_paths, promote};

const CELL: usize = 1024;
const CELLS: usize = 4;
/// Bytes a stream holds before the sender must wait for the receiver.
const CAPACITY: usize = CELL * CELLS;
/// Largest payload that rides in the flag line beside its frame.
const INLINE: usize = 32;
/// Every framing boundary: empty, inline up to its limit, the first sizes
/// through a data slot, around one cell, a non-multiple of several.
const FRAMINGS: [usize; 9] = [
    0,
    1,
    INLINE,
    INLINE + 1,
    64,
    CELL - 1,
    CELL,
    CELL + 1,
    3 * CELL + 7,
];
/// One cell, one byte more, a non-multiple, exactly the stream, several laps.
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

/// [`p2p_paths`], each with the framings whose virtual time does not depend on
/// host scheduling there: the eager ring holds four cells, and the staged case
/// of [`receiver_log`] needs one of them for the message behind.
fn four_paths() -> [(&'static str, UniverseConfig, &'static [usize]); 4] {
    p2p_paths().map(|(label, config)| {
        let eager = matches!(&config.transport,
            TransportConfig::CxlShm(c) if c.conn_mode == ConnMode::Eager);
        let sizes: &[usize] = if eager { &FRAMINGS[..8] } else { &FRAMINGS };
        (label, config, sizes)
    })
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

/// Every size in `sizes` through {`send`, `isend`} × {`recv`, `irecv_into`,
/// `recv_owned`}, then `sendrecv`, then a persistent ring-path bcast (the
/// progress engine's resumable send), directions alternating. Returns each
/// rank's digest of everything it received, and its counters.
fn every_form(config: UniverseConfig, sizes: &'static [usize]) -> Vec<(u64, TransportStats)> {
    let config = config.with_coll_tuning(force_ring());
    Universe::run(config, move |comm: &mut Comm| {
        let me = comm.rank();
        let peer = 1 - me;
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        promote(comm, 0, 1)?;
        for (k, &size) in sizes.iter().enumerate() {
            for form in 0..6u64 {
                let (send_form, recv_form) = (form % 2, form / 2);
                let stamp = k as u64 * 16 + form;
                let (from, tag) = ((k + recv_form as usize) % 2, form as i32);
                if me == from {
                    let data = payload(size, stamp);
                    match send_form {
                        0 => comm.send(peer, tag, &data)?,
                        _ => {
                            let mut req = comm.isend(peer, tag, &data)?;
                            comm.wait(&mut req)?;
                        }
                    }
                    continue;
                }
                let got = match recv_form {
                    0 => {
                        let mut buf = vec![0u8; size];
                        let st = comm.recv(Some(from), Some(tag), &mut buf)?;
                        assert_eq!((st.source, st.tag, st.len), (from, tag, size));
                        buf
                    }
                    1 => {
                        let mut req = comm.irecv_into(Some(from), Some(tag), vec![0u8; size])?;
                        comm.wait(&mut req)?;
                        req.take_data()?
                    }
                    _ => {
                        let (st, data) = comm.recv_owned(Some(from), Some(tag))?;
                        assert_eq!(st.len, size);
                        data
                    }
                };
                assert_eq!(got, payload(size, stamp), "{size} B, form {form}");
                fold(&mut digest, &got);
            }

            // sendrecv: both directions in one call.
            let stamp = k as u64 * 16;
            let mine = payload(size, stamp + 8 + me as u64);
            let (st, got) = comm.sendrecv(peer, 7, &mine, peer, 7)?;
            assert_eq!(st.len, size);
            assert_eq!(got, payload(size, stamp + 8 + peer as u64), "sendrecv");
            fold(&mut digest, &got);

            // A persistent collective on the ring path drives the same
            // message through the progress engine's resumable send, twice.
            let mut req = comm.bcast_init(1, &payload(size, stamp + 10))?;
            for _ in 0..2 {
                comm.start(&mut req)?;
                comm.wait(&mut req)?;
                let got = req.read_result::<u8>()?;
                assert_eq!(got, payload(size, stamp + 10), "bcast");
                fold(&mut digest, &got);
            }
            req.release()?;
        }
        Ok((digest, comm.stats()))
    })
    .unwrap()
    .into_iter()
    .map(|(out, report)| {
        assert_eq!(
            report.stats.rdv_msgs, out.1.rdv_msgs,
            "RankReport carries it"
        );
        out
    })
    .collect()
}

/// Rank 1's `(status, virtual clock)` after each receive of a fixed script in
/// which every receive is taken by `recv_form` (0 `recv`, 1 `irecv_into` +
/// `wait`, 2 `recv_owned`). Each size arrives three times: with nothing in the
/// way (it is received straight off the wire), behind a later message the
/// receiver asks for first (it is staged before its receive is posted), and
/// after an `iprobe` has reported it.
fn receiver_log(
    config: UniverseConfig,
    sizes: &'static [usize],
    recv_form: usize,
) -> Vec<(Status, u64)> {
    let mut out = Universe::run(config, move |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let mut log = Vec::new();
        let mut byte = [0u8; 1];
        for (k, &size) in sizes.iter().enumerate() {
            for case in 0..3 {
                let stamp = (k * 4 + case) as u64;
                if comm.rank() == 0 {
                    comm.send(1, 1, &payload(size, stamp))?;
                    if case == 1 {
                        comm.send(1, 2, &[1])?;
                    }
                    comm.recv(Some(1), Some(3), &mut byte)?;
                    continue;
                }
                if case == 1 {
                    comm.recv(Some(0), Some(2), &mut byte)?;
                }
                if case == 2 {
                    let probed = loop {
                        match comm.iprobe(Some(0), Some(1))? {
                            Some(st) => break st,
                            None => std::thread::yield_now(),
                        }
                    };
                    assert_eq!(probed, Status::new(0, 1, size));
                }
                let (st, got) = match recv_form {
                    0 => {
                        let mut buf = vec![0u8; size];
                        (comm.recv(Some(0), Some(1), &mut buf)?, buf)
                    }
                    1 => {
                        let mut req = comm.irecv_into(Some(0), Some(1), vec![0u8; size])?;
                        (comm.wait(&mut req)?, req.take_data()?)
                    }
                    _ => comm.recv_owned(Some(0), Some(1))?,
                };
                assert_eq!(got, payload(size, stamp), "{size} B, case {case}");
                log.push((st, comm.clock_ns().to_bits()));
                comm.send(0, 3, &[1])?;
            }
        }
        Ok(log)
    })
    .unwrap();
    out.swap_remove(1).0
}

/// Which receive form takes a message changes where its bytes land and
/// nothing else: same status, same virtual time to the bit.
fn assert_receive_forms_agree(label: &str, config: &UniverseConfig, sizes: &'static [usize]) {
    let by_slice = receiver_log(config.clone(), sizes, 0);
    assert_eq!(by_slice.len(), 3 * sizes.len());
    for (recv_form, name) in [(1, "irecv_into + wait"), (2, "recv_owned")] {
        let other = receiver_log(config.clone(), sizes, recv_form);
        for (i, (a, b)) in by_slice.iter().zip(&other).enumerate() {
            let (size, case) = (sizes[i / 3], i % 3);
            assert_eq!(a, b, "{label}, {size} B, case {case}: recv against {name}");
        }
    }
}

#[test]
fn every_framing_through_every_p2p_form() {
    for (label, config, sizes) in four_paths() {
        assert_receive_forms_agree(label, &config, sizes);
    }
    let lazy_out = every_form(lazy(2), &FRAMINGS);
    let eager_out = every_form(lazy(2).with_conn_mode(ConnMode::Eager), &FRAMINGS);
    for ((l, stats), (e, _)) in lazy_out.iter().zip(&eager_out) {
        assert_eq!(l, e, "same bytes as the chunked-cell oracle");
        // Only 3·cell + 7 takes more than one segment; everything rode a
        // stream, so nothing but `promote` touched the SRQ.
        assert!(stats.rdv_msgs >= 3, "{stats:?}");
        assert!(stats.rdv_segments >= 2 * stats.rdv_msgs);
        assert_eq!((stats.srq_msgs, stats.stream_alloc_failures), (4, 0));
    }
}

#[test]
fn every_size_through_every_p2p_form() {
    assert_receive_forms_agree("lazy promoted", &lazy(2), &SIZES);
    let reports = every_form(lazy(2), &SIZES);
    for (_, stats) in &reports {
        // Four sizes above a cell, each through at least three sends a rank.
        assert!(stats.rdv_msgs >= 4 * 3, "{stats:?}");
        assert!(stats.rdv_bytes > stats.rdv_msgs * CELL as u64);
        assert!(stats.rdv_segments > stats.rdv_msgs);
    }
    let sent: u64 = reports.iter().map(|(_, s)| s.msgs_sent).sum();
    let received: u64 = reports.iter().map(|(_, s)| s.msgs_received).sum();
    assert_eq!(sent, received, "a message counts once on each side");
}

#[test]
fn one_doorbell_ring_per_message_whatever_its_length() {
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
fn wildcards_match_every_framing() {
    Universe::run(lazy(3), |comm: &mut Comm| {
        promote(comm, 1, 0)?;
        promote(comm, 2, 0)?;
        for size in [0, INLINE, INLINE + 1, CELL, 2 * CAPACITY + 3] {
            match comm.rank() {
                0 => {
                    let mut seen = [false; 3];
                    for _ in 0..2 {
                        let mut buf = vec![0u8; size];
                        let st = comm.recv(ANY_SOURCE, ANY_TAG, &mut buf)?;
                        assert_eq!((st.tag, st.len), (10 + st.source as i32, size));
                        assert_eq!(buf, payload(size, st.source as u64));
                        seen[st.source] = true;
                    }
                    assert_eq!(seen, [false, true, true]);
                }
                me => comm.send(0, 10 + me as i32, &payload(size, me as u64))?,
            }
            comm.barrier()?;
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn iprobe_reports_the_stream_head_and_consumes_and_charges_nothing() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        for size in [8, CELL, CAPACITY + 9] {
            if comm.rank() == 0 {
                comm.send(1, 4, &payload(size, 4))?;
            } else {
                let before = comm.clock_ns();
                let st = loop {
                    if let Some(st) = comm.iprobe(ANY_SOURCE, ANY_TAG)? {
                        break st;
                    }
                    std::thread::yield_now();
                };
                assert_eq!((st.source, st.tag, st.len), (0, 4, size));
                assert_eq!(comm.iprobe(Some(0), Some(4))?, Some(st), "still there");
                assert_eq!(comm.clock_ns(), before, "a probe is free");
                // The receive sized by the probe gets that very message,
                // and pays for it.
                let mut buf = vec![0u8; st.len];
                assert_eq!(comm.recv(Some(0), Some(4), &mut buf)?, st);
                assert_eq!(buf, payload(size, 4));
                assert!(comm.clock_ns() > before);
                assert!(comm.iprobe(ANY_SOURCE, ANY_TAG)?.is_none(), "consumed once");
            }
            comm.barrier()?;
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn unexpected_messages_drain_to_staging_before_their_receive_is_posted() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let (first, second) = (2 * CAPACITY + 5, CELL + 1);
        if comm.rank() == 0 {
            // `first` fits no stream: the send cannot finish unless the
            // receiver drains it while looking for `second`.
            comm.send(1, 1, &payload(first, 1))?;
            comm.send(1, 2, &payload(second, 2))?;
            // One that fills the stream, its receive posted last: the 1-byte
            // message behind it gets through because the receiver, looking
            // for that one, drains this one to staging.
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
fn bursts_longer_than_the_stream_do_not_overtake_per_selector() {
    const BURST: usize = 4 * CELLS + 3;
    let len = |i: usize| [8, INLINE + 1, 0, 2 * CELL + 5][i % 4];
    Universe::run(lazy(2), move |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        for round in 0..3u64 {
            let sender = round as usize % 2;
            if comm.rank() == sender {
                // Two interleaved selectors, far more in flight than slots.
                let mut reqs: Vec<Request> = (0..BURST)
                    .map(|i| {
                        comm.isend(
                            1 - sender,
                            (i % 2) as i32,
                            &payload(len(i), round * 64 + i as u64),
                        )
                    })
                    .collect::<Result<_>>()?;
                comm.wait_all(&mut reqs)?;
            } else {
                // Odd tags first: the even ones wait in staging meanwhile.
                let mut buf = vec![0u8; 2 * CELL + 5];
                for i in (1..BURST).step_by(2).chain((0..BURST).step_by(2)) {
                    let st = comm.recv(Some(sender), Some((i % 2) as i32), &mut buf)?;
                    assert_eq!(st.len, len(i), "round {round}, message {i}");
                    assert_eq!(buf[..st.len], payload(len(i), round * 64 + i as u64));
                }
            }
        }
        Ok(())
    })
    .unwrap();
}

/// Finding 3 of the `e2e` audit: a blocked `send` must keep draining its own
/// arrivals, or two ranks that each send more than the queues hold before
/// their first receive wedge each other (this test hangs on the parent of the
/// change that added it, on the lazy CXL transport).
#[test]
fn two_ranks_sending_past_the_queues_before_receiving_do_not_deadlock() {
    let cxl = UniverseConfig::cxl_small(2).with_hosts(matrix_hosts());
    for (label, config) in [
        ("CXL lazy", cxl.clone()),
        ("CXL eager", cxl.with_conn_mode(ConnMode::Eager)),
        ("TCP", UniverseConfig::tcp(2, TcpNic::MellanoxCx6Dx)),
    ] {
        Universe::run(config, move |comm: &mut Comm| {
            let (me, peer) = (comm.rank() as u64, 1 - comm.rank());
            for i in 0..64u64 {
                comm.send(peer, 1, &payload(8, me * 1000 + i))?;
            }
            for i in 0..4u64 {
                comm.send(peer, 2, &payload(3 * CELL, me * 1000 + 64 + i))?;
            }
            let them = peer as u64 * 1000;
            let mut buf = vec![0u8; 3 * CELL];
            for i in 0..64u64 {
                let st = comm.recv(Some(peer), Some(1), &mut buf)?;
                assert_eq!(buf[..st.len], payload(8, them + i), "{label}: small {i}");
            }
            for i in 0..4u64 {
                let st = comm.recv(Some(peer), Some(2), &mut buf)?;
                assert_eq!(buf[..st.len], payload(3 * CELL, them + 64 + i), "{label}");
            }
            Ok(())
        })
        .unwrap();
    }
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
fn a_message_for_another_communicator_at_the_stream_head_is_staged() {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        let mut dup = comm.comm_dup()?;
        for size in [INLINE, CELL, CAPACITY + 9] {
            if comm.rank() == 0 {
                comm.send(1, 5, &payload(size, 1))?;
                dup.send(1, 5, &payload(size, 2))?;
            } else {
                // Same source and tag: only the context tells them apart,
                // and the world message is ahead in the stream.
                let mut buf = vec![0u8; size];
                dup.recv(Some(0), Some(5), &mut buf)?;
                assert_eq!(buf, payload(size, 2));
                comm.recv(Some(0), Some(5), &mut buf)?;
                assert_eq!(buf, payload(size, 1));
            }
        }
        Ok(())
    })
    .unwrap();
}

#[test]
fn truncation_consumes_the_message_and_leaves_the_pair_usable() {
    for (label, config, _) in four_paths() {
        Universe::run(config, move |comm: &mut Comm| {
            promote(comm, 0, 1)?;
            let cases = [(INLINE, 8), (CELL, INLINE), (3 * CELL, CELL + 1)];
            // Both bounded forms: `recv`, then `irecv_into` + `wait`.
            for ((size, short), posted) in cases.into_iter().zip([false, true, false]) {
                if comm.rank() == 0 {
                    comm.send(1, 1, &payload(size, 1))?;
                    comm.send(1, 1, &payload(size, 2))?;
                    continue;
                }
                let truncated = match posted {
                    false => comm.recv(Some(0), Some(1), &mut vec![0u8; short]).err(),
                    true => {
                        let mut req = comm.irecv_into(Some(0), Some(1), vec![0u8; short])?;
                        let failed = comm.wait(&mut req).err();
                        assert!(matches!(comm.wait(&mut req), Err(MpiError::StaleRequest)));
                        failed
                    }
                };
                match truncated {
                    Some(MpiError::Truncation {
                        message_len,
                        buffer_len,
                    }) => assert_eq!((message_len, buffer_len), (size, short), "{label}"),
                    other => panic!("{label}: expected truncation, got {other:?}"),
                }
                let mut buf = vec![0u8; size];
                comm.recv(Some(0), Some(1), &mut buf)?;
                assert_eq!(buf, payload(size, 2), "{label}: the next message is whole");
            }
            Ok(())
        })
        .unwrap();
    }
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
fn sender_death_at_message_entry_or_mid_stream_fails_the_receiver() {
    // `promote` is six sends; the seventh is the large message's entry.
    receiver_survives(FaultTrigger::NthSend(7));
    // Sixteen segments: die entering the sixth, with five already published.
    receiver_survives(FaultTrigger::NthPublish(6));
}

/// A script with large and small messages, wildcards and crossing traffic;
/// returns each rank's digest of everything it received, and its counters.
fn digest_script(config: UniverseConfig) -> Vec<(u64, TransportStats)> {
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
        assert!(l.1.rdv_msgs > 0, "lazy streamed: {:?}", l.1);
        assert_eq!(e.1.rdv_msgs, 0, "eager is the chunked-cell oracle");
        assert_eq!((e.1.doorbell_rings, e.1.qps_established), (0, 0));
    }
}

#[test]
fn no_room_for_a_stream_stays_on_the_srq_byte_identically() {
    // Streams are provisioned with the pool, so only something else eating
    // their room can make a promotion fail: here an RMA window far past the
    // (tiny) headroom, allocated before the pair's fifth message. 64 KiB
    // cells × 8 make each stream 512 KiB; the window leaves less than that.
    const WINDOW: [usize; 2] = [500 * 1024, 0];
    let script = |hog: usize| {
        let mut config = UniverseConfig::cxl_small(2)
            .with_hosts(matrix_hosts())
            .with_coll_tuning(force_ring());
        if let TransportConfig::CxlShm(c) = &mut config.transport {
            c.cell_size = 64 * 1024;
            c.cells_per_queue = 8;
            c.srq_cells = 4;
            c.window_headroom = 64 * 1024;
        }
        Universe::run(config, move |comm: &mut Comm| {
            let win = (hog > 0).then(|| comm.win_allocate(hog)).transpose()?;
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
            let stats = comm.stats();
            if let Some(win) = win {
                comm.win_free(win)?;
            }
            Ok((digest, stats))
        })
        .unwrap()
    };
    let [tight, roomy] = WINDOW.map(script);
    for ((t, _), (r, _)) in tight.iter().zip(&roomy) {
        assert_eq!(t.0, r.0, "same bytes either way");
        // Refused once, at the first promotion attempt; never asked again.
        assert_eq!((t.1.qps_established, t.1.stream_alloc_failures), (0, 1));
        assert_eq!((t.1.srq_msgs, t.1.doorbell_rings), (t.1.msgs_sent, 0));
        assert_eq!((r.1.qps_established, r.1.stream_alloc_failures), (1, 0));
        assert_eq!((r.1.srq_msgs, r.1.rdv_msgs), (4, 2), "{:?}", r.1);
    }
}

#[test]
fn sendrecv_costs_one_latency_not_two() {
    // Both sides send first: a halo exchange is one one-way latency. (That
    // it cannot deadlock on messages larger than a stream holds is what the
    // ring of `digest_script` and the exchanges below run into.)
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
        assert_eq!((stats.qps_established, stats.qps_opened), (7, 7));
        assert_eq!(stats.stream_alloc_failures, 0);
        // The first rounds rode the SRQ; the last streamed on every pair.
        assert!(stats.rdv_msgs >= 7, "{stats:?}");
    }
}

/// Streams are provisioned where queue pairs were — in the pool's connection
/// share, never in `window_headroom` — so with every pair of eight ranks
/// promoted and gone large, windows that together take most of the headroom
/// still fit.
#[test]
fn streams_never_draw_on_the_window_headroom() {
    use cmpi::mpi::{CollTuning, DataPlaneMode, HierarchyMode, ReduceOp};

    const RANKS: usize = 8;
    const HEADROOM: usize = 256 * 1024;
    let tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        data_plane: DataPlaneMode::Shm,
        shm_arena_bytes: 4096,
        ..CollTuning::default()
    };
    let config = common::with_window_headroom(UniverseConfig::cxl_small(RANKS), HEADROOM)
        .with_hosts(matrix_hosts())
        .with_coll_tuning(tuning);
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
        // Two exposure windows (≈ 36 KiB each) and an RMA window of 20 KiB a
        // rank, created now: 232 KiB and more of the 256 KiB, and all work.
        let mut dup = comm.comm_dup()?;
        let mut v = vec![1u64; 16];
        dup.allreduce(&mut v, ReduceOp::Sum)?;
        assert_eq!(v, [RANKS as u64; 16]);
        assert_eq!(dup.last_coll_algorithm(), "allreduce/shm");
        let win = comm.win_allocate(20 * 1024)?;
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
        assert_eq!((stats.qps_established, stats.stream_alloc_failures), (7, 0));
        assert_eq!(stats.rdv_msgs, 7, "every pair streamed: {stats:?}");
        let dp = &report.data_plane;
        assert_eq!((dp.window_setups, dp.window_failures), (2, 0), "{dp:?}");
    }
}

/// `TransportStats` after a plain 2-rank ping-pong: every counter `e2e` and
/// the `scaling` rows read is driven, and means what its name says.
#[test]
fn counters_are_pinned_by_a_ping_pong() {
    const N: u64 = 40;
    let config = lazy(2);
    let TransportConfig::CxlShm(c) = &config.transport else {
        unreachable!("cxl_small is a CXL config");
    };
    let threshold = c.promotion_threshold;
    assert!((1..N).contains(&threshold));
    let reports = Universe::run(config, |comm: &mut Comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        let mut buf = [0u8; 8];
        for i in 0..N {
            if me == 0 {
                comm.send(peer, 1, &payload(8, i))?;
            }
            comm.recv(Some(peer), Some(1), &mut buf)?;
            if me == 1 {
                comm.send(peer, 1, &payload(8, i))?;
            }
        }
        Ok(comm.stats())
    })
    .unwrap();
    for (rank, (stats, report)) in reports.into_iter().enumerate() {
        assert_eq!(stats, report.stats, "RankReport carries the same snapshot");
        assert_eq!(
            (stats.msgs_sent, stats.msgs_received),
            (N, N),
            "rank {rank}"
        );
        assert_eq!((stats.bytes_sent, stats.bytes_received), (8 * N, 8 * N));
        // The first `threshold` messages ride the SRQ; the pair is promoted
        // at the entry of the next, once, in each direction; every message
        // after that is one stream segment and one doorbell ring.
        assert_eq!(stats.srq_msgs, threshold, "rank {rank}: {stats:?}");
        assert_eq!((stats.qps_established, stats.qps_opened), (1, 1));
        assert_eq!(stats.doorbell_rings, N - threshold);
        assert!(stats.ring_probes >= N - threshold, "{stats:?}");
        assert_eq!((stats.stream_alloc_failures, stats.rdv_msgs), (0, 0));
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

/// The `burst16_8B` script of the benchmark at the test geometry: sixteen
/// 8 B `isend`s in flight at once into a four-slot stream, directions
/// alternating. Returns every rank's final virtual clock.
fn burst_script_clocks() -> Vec<f64> {
    Universe::run(lazy(2), |comm: &mut Comm| {
        promote(comm, 0, 1)?;
        for round in 0..8u64 {
            let sender = round as usize % 2;
            let mut reqs: Vec<Request> = (0..16u64)
                .map(|i| match comm.rank() == sender {
                    true => comm.isend(1 - sender, 2, &payload(8, round * 16 + i)),
                    false => comm.irecv_into(Some(sender), Some(2), vec![0u8; 8]),
                })
                .collect::<Result<_>>()?;
            comm.wait_all(&mut reqs)?;
        }
        Ok(())
    })
    .unwrap()
    .into_iter()
    .map(|(_, report)| report.clock_ns)
    .collect()
}

#[test]
fn burst_and_stream_virtual_time_is_deterministic() {
    // A stall is charged from the stamp of the hand-back that ended it, never
    // per retry: however the host schedules the two rank threads, the clocks
    // come out the same to the bit.
    for script in [burst_script_clocks, stream_script_clocks] {
        let first = script();
        for launch in 1..20 {
            let again = script();
            for (rank, (a, b)) in first.iter().zip(&again).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "launch {launch}, rank {rank}: {a} vs {b}"
                );
            }
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
