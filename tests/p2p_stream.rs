//! The point-to-point data path of the CXL transport's default (lazy) mode: a
//! promoted pair is one stamped stream per direction, and every message rides
//! it — frame and payload as stamped lines (the flag line alone up to 32 B,
//! then lines at the head of the data slot, up to the stream's stamped
//! maximum), a longer one as one streamed slot behind its flag line, anything
//! longer than a cell as further frame-less segments. The suite runs the small
//! test geometry (1 KiB cells, 4 per stream, so a stream holds 4 KiB and hands
//! slots back two at a time, and a message of up to 928 B is stamped lines)
//! and pins what the protocol must keep: MPI matching and ordering at every
//! framing boundary, bytes intact on the direct and the staged receive path,
//! blocked senders that keep draining their own arrivals, no hang on a dead
//! sender, a byte-identical cold path when no stream can be created, counters
//! that mean what they say, and virtual clocks that do not depend on host
//! scheduling. What a message costs is pinned at the default geometry as
//! `CxlCostModel` sums, and where the stamped maximum lies as read off the
//! model. `ConnMode::Eager` — the paper's chunked-cell protocol — is the
//! oracle the bytes are compared against. It also holds the regression tests
//! for the non-overtaking rule of `wait_all`.

mod common;

use cmpi::fabric::cost::{CoherenceMode, TcpNic};
use cmpi::fabric::CxlCostModel;
use cmpi::mpi::transport::TransportStats;
use cmpi::mpi::{
    Comm, ConnMode, ErrHandler, FaultPlan, FaultTrigger, FtOutcome, MpiError, ProgressMode,
    ReduceOp, Request, Result, Status, TransportConfig, Universe, UniverseConfig, ANY_SOURCE,
    ANY_TAG,
};
use cmpi::shm::slots::{stamped_lines, SLOT_CELL_SIZE};
use common::{
    configs, force_ring, force_shm, matrix_hosts, p2p_paths, promote, with_window_headroom,
};

const CELL: usize = 1024;
const CELLS: usize = 4;
/// Bytes a stream holds before the sender must wait for the receiver.
const CAPACITY: usize = CELL * CELLS;
/// Largest payload that rides in the flag line beside its frame.
const INLINE: usize = 32;
/// Largest payload sent as stamped lines at the test geometry: with the frame
/// it fills the flag line and the sixteen lines of a 1 KiB data slot (the
/// model would stamp far longer ones at two ranks).
const STAMPED_MAX: usize = INLINE + 16 * 56;
/// Every framing boundary: empty, the flag line alone up to its limit, one
/// and two lines more, the most stamped lines and the first size behind a
/// flag line, around one cell, a non-multiple of several.
const FRAMINGS: [usize; 13] = [
    0,
    1,
    INLINE,
    INLINE + 1,
    64,
    INLINE + 56,
    INLINE + 57,
    STAMPED_MAX,
    STAMPED_MAX + 1,
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
        let sizes: &[usize] = match eager {
            true => &FRAMINGS[..FRAMINGS.len() - 1],
            false => &FRAMINGS,
        };
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

/// The stamped lines a message of `len` bytes takes on a stream at the test
/// geometry — one when it goes through the data slot.
fn lines_of(len: usize) -> usize {
    match len {
        0..=STAMPED_MAX => stamped_lines(16 + len),
        _ => 1,
    }
}

/// Which receive form takes a message changes where its bytes land and
/// nothing else: same status, same virtual time to the bit.
/// The one exception is on a promoted stream, whose reads begin with one
/// gathered read of a guess of lines: a posted receive guesses the lines of
/// its length, which is the message's here, and a receive that posts no
/// buffer those of the stream's last message — the same in every form, so a
/// staged message costs the same in all of them. An owned receive is never
/// earlier, and it is later once it took a message straight off the wire
/// with a guess that was not the message's.
fn assert_receive_forms_agree(label: &str, config: &UniverseConfig, sizes: &'static [usize]) {
    let by_slice = receiver_log(config.clone(), sizes, 0);
    assert_eq!(by_slice.len(), 3 * sizes.len());
    let posted = receiver_log(config.clone(), sizes, 1);
    assert_eq!(by_slice, posted, "{label}: recv against irecv_into + wait");
    let owned = receiver_log(config.clone(), sizes, 2);
    // What the stream's last message took: the one-line promotion messages,
    // then each case's message, and case 1's one byte behind it.
    let (mut last, mut later) = (1, false);
    for (i, (a, b)) in by_slice.iter().zip(&owned).enumerate() {
        let (size, case) = (sizes[i / 3], i % 3);
        let what = format!("{label}, {size} B, case {case}: recv against recv_owned");
        assert_eq!(a.0, b.0, "{what}");
        later |= label == "lazy promoted" && case != 1 && last != lines_of(size);
        last = if case == 1 { 1 } else { lines_of(size) };
        match later {
            false => assert_eq!(a.1, b.1, "{what}"),
            true => assert!(f64::from_bits(a.1) < f64::from_bits(b.1), "{what}"),
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
        // Four sizes of several stamped lines, each sent through at least
        // three forms a rank, and taken in gathered reads of several lines.
        assert!(stats.stamped_msgs >= 4 * 3, "{stats:?}");
        assert!(stats.stamped_reads > 0, "{stats:?}");
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
        for size in FRAMINGS.into_iter().chain([2 * CAPACITY + 3]) {
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
        for size in FRAMINGS.into_iter().chain([CAPACITY + 9]) {
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
        for size in FRAMINGS.into_iter().chain([CAPACITY + 9]) {
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
    for (label, config, sizes) in four_paths() {
        Universe::run(config, move |comm: &mut Comm| {
            promote(comm, 0, 1)?;
            // Every framing into a buffer one byte short — a posted one in
            // turn into one of half the message — by both bounded forms,
            // `recv` and `irecv_into` + `wait`.
            let cases = sizes.iter().filter(|&&size| size > 0).enumerate();
            for (i, &size) in cases {
                let (short, posted) = match i % 2 {
                    0 => (size - 1, false),
                    _ => (size / 2, true),
                };
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
    // ring of `digest_script` and the exchanges below run into.) `sendrecv`
    // receives owned, so the one-way latency it is held to is an owned
    // receive's: behind a message as long, one gathered read of all its
    // lines, as a posted receive takes it.
    let reports = Universe::run(lazy(2), |comm: &mut Comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        promote(comm, 0, 1)?;
        let mut buf = vec![0u8; 256];
        let start = comm.clock_ns();
        for _ in 0..4 {
            if me == 0 {
                comm.send(1, 1, &buf)?;
                buf = comm.recv_owned(Some(1), Some(1))?.1;
            } else {
                buf = comm.recv_owned(Some(0), Some(1))?.1;
                comm.send(0, 1, &buf)?;
            }
        }
        let one_way = (comm.clock_ns() - start) / 8.0;
        // The ping-pong leaves rank 1's clock behind rank 0's by about rank
        // 0's last receive, which rank 1's first exchange would wait out:
        // one untimed exchange lines the two up.
        comm.sendrecv(peer, 2, &[7u8; 256], peer, 2)?;
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

/// How both ranks of [`one_way_ns`] take each message.
#[derive(Clone, Copy)]
enum Take {
    /// `recv` into a buffer of this many bytes.
    Posted(usize),
    /// `recv_owned` naming the sender.
    Owned,
    /// `recv_owned` from any source.
    AnySource,
    /// `irecv` + `wait`.
    Irecv,
}

/// Rank 0's virtual time per one-way message of `size` bytes between two
/// ranks on two hosts at the default geometry, every message taken by
/// `take`. With `behind: Some(b)` it is timed over round trips that each
/// follow an untimed one of `b` bytes — the message whose lines a receive
/// that posts no buffer guesses; with `None`, over the one round trip right
/// after promotion, the first of streams that have carried one-line
/// messages only.
fn one_way_ns(behind: Option<usize>, size: usize, take: Take) -> f64 {
    let round_trips = if behind.is_some() { 16 } else { 1 };
    let config = UniverseConfig::cxl(2).with_hosts(2);
    let reports = Universe::run(config, move |comm: &mut Comm| {
        let (me, peer) = (comm.rank(), 1 - comm.rank());
        promote(comm, 0, 1)?;
        let round_trip = |comm: &mut Comm, size: usize| -> Result<f64> {
            let start = comm.clock_ns();
            let data = payload(size, size as u64);
            if me == 0 {
                comm.send(peer, 1, &data)?;
            }
            let got = match take {
                Take::Posted(len) => {
                    let mut buf = vec![0u8; len];
                    let st = comm.recv(Some(peer), Some(1), &mut buf)?;
                    buf.truncate(st.len);
                    buf
                }
                Take::Owned => comm.recv_owned(Some(peer), Some(1))?.1,
                Take::AnySource => comm.recv_owned(None, Some(1))?.1,
                Take::Irecv => {
                    let mut req = comm.irecv(Some(peer), Some(1))?;
                    comm.wait(&mut req)?;
                    req.take_data()?
                }
            };
            assert_eq!(got, data);
            if me == 1 {
                comm.send(peer, 1, &data)?;
            }
            Ok(comm.clock_ns() - start)
        };
        let mut timed = 0.0;
        for _ in 0..round_trips {
            if let Some(b) = behind {
                round_trip(comm, b)?;
            }
            timed += round_trip(comm, size)?;
        }
        Ok(timed / (2 * round_trips) as f64)
    })
    .unwrap();
    reports[0].0
}

/// What a small message costs beyond an 8-byte one — which is the flag line
/// alone on both sides — as `CxlCostModel` sums: the sender's store stream of
/// its stamped lines in place of the flag line, and the receiver's read. The
/// read is one gathered read of a guess of lines and, when the message takes
/// more, a second read of the rest: a receive that posts a buffer guesses the
/// lines of its length, any other those of the stream's last message.
#[test]
fn a_stamped_message_costs_one_store_stream_and_one_read() {
    let model = CxlCostModel::default();
    let mode = CoherenceMode::FlushClflushopt;
    let publish = |bytes| model.streamed_publish(bytes, mode);
    let read = |bytes| model.streamed_read(bytes, mode);
    let line = model.nt_access();
    // The bytes of the stamped lines a message of `len` bytes takes.
    let lines = |len: usize| stamped_lines(16 + len) * SLOT_CELL_SIZE;
    let base = one_way_ns(Some(8), 8, Take::Posted(8));
    let close = |what: &str, got: f64, want: f64| {
        assert!(
            (got - want).abs() < 1e-3,
            "{what}: {got} ns, the model says {want} ns"
        );
    };
    // One gathered read of every line (5 for 256 B, 74 for 4 KiB): one flag
    // line saved on either side. A posted receive guesses its length; a
    // receive that posts no buffer, in every form, the message before,
    // which was as long.
    for size in [256, 4096] {
        let want = publish(lines(size)) + read(lines(size)) - 2.0 * line;
        close(
            &format!("{size} B"),
            one_way_ns(Some(size), size, Take::Posted(size)) - base,
            want,
        );
    }
    let want = publish(lines(256)) + read(lines(256)) - 2.0 * line;
    for (what, take) in [
        ("owned", Take::Owned),
        ("from any source", Take::AnySource),
        ("by irecv + wait", Take::Irecv),
    ] {
        let got = one_way_ns(Some(256), 256, take) - base;
        close(&format!("256 B {what} behind 256 B"), got, want);
    }
    // The first message of a stream that carried one-line messages only
    // guesses one line: the flag line, then the other four.
    let want = publish(lines(256)) - line + read(lines(256) - SLOT_CELL_SIZE);
    let fresh = one_way_ns(None, 256, Take::Owned) - one_way_ns(None, 8, Take::Posted(8));
    close("256 B owned, first", fresh, want);
    // A longer message than the last reads the guess, then the rest.
    let want =
        publish(lines(4096)) + read(lines(256)) + read(lines(4096) - lines(256)) - 2.0 * line;
    let got = one_way_ns(Some(256), 4096, Take::Owned) - base;
    close("4 KiB owned behind 256 B", got, want);
    // A shorter one, and a receive that posts 4 KiB, read what 4 KiB
    // takes, whatever arrives: the over-read is paid.
    let want = publish(lines(256)) + read(lines(4096)) - 2.0 * line;
    let got = one_way_ns(Some(4096), 256, Take::Owned) - base;
    close("256 B owned behind 4 KiB", got, want);
    let got = one_way_ns(Some(256), 256, Take::Posted(4096)) - base;
    close("256 B into 4 KiB", got, want);
}

/// The longest message a stream sends as stamped lines at the default
/// geometry, pinned a byte either side as read off the model: a pair's own
/// charges at the universe's default crowd (half the ranks) price it, so a
/// cross-host pair's maximum falls as the crowd's fair-share floor rises,
/// and a same-host pair — no flush, no floor — stamps all that fits in a
/// 64 KiB slot.
#[test]
fn the_stamped_maximum_is_read_off_the_model() {
    for (ranks, hosts, peer, max) in [
        (2, 2, 1, 26_184),
        (2, 1, 1, 57_376),
        (8, 2, 4, 2_664),
        (8, 2, 1, 57_376),
    ] {
        let config = UniverseConfig::cxl(ranks).with_hosts(hosts);
        let reports = Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank();
            promote(comm, 0, peer)?;
            let mut counts = Vec::new();
            for size in [max, max + 1] {
                let before = comm.stats();
                if me == 0 {
                    comm.send(peer, 1, &payload(size, 3))?;
                } else if me == peer {
                    let mut buf = vec![0u8; size];
                    comm.recv(Some(0), Some(1), &mut buf)?;
                    assert_eq!(buf, payload(size, 3));
                }
                let after = comm.stats();
                counts.push((
                    after.stamped_msgs - before.stamped_msgs,
                    after.stamped_reads - before.stamped_reads,
                ));
            }
            Ok(counts)
        })
        .unwrap();
        let what = format!("{ranks} ranks on {hosts} hosts, 0 → {peer}");
        assert_eq!(
            reports[0].0,
            [(1, 0), (0, 0)],
            "{what}: sent at {max} B and past it"
        );
        assert_eq!(reports[peer].0, [(0, 1), (0, 0)], "{what}: taken");
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
    use cmpi::mpi::{CollTuning, HierarchyMode, ReduceOp};

    const RANKS: usize = 8;
    const HEADROOM: usize = 256 * 1024;
    let tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        shm_arena_bytes: 4096,
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
        let mut legs = Vec::new();
        // An 8 B leg, then a 256 B one: five stamped lines each way.
        for size in [8, 256] {
            let mut buf = vec![0u8; size];
            for i in 0..N {
                if me == 0 {
                    comm.send(peer, 1, &payload(size, i))?;
                }
                comm.recv(Some(peer), Some(1), &mut buf)?;
                if me == 1 {
                    comm.send(peer, 1, &payload(size, i))?;
                }
            }
            legs.push(comm.stats());
        }
        // A `sendrecv` leg of 512 B, ten stamped lines each way.
        for i in 0..N {
            let (_, got) = comm.sendrecv(peer, 2, &payload(512, i), peer, 2)?;
            assert_eq!(got, payload(512, i));
        }
        legs.push(comm.stats());
        Ok(legs)
    })
    .unwrap();
    for (rank, (legs, report)) in reports.into_iter().enumerate() {
        let (small, stats, exchanged) = (legs[0], legs[1], legs[2]);
        assert_eq!(
            exchanged, report.stats,
            "RankReport carries the same snapshot"
        );
        assert_eq!(
            (small.msgs_sent, small.msgs_received),
            (N, N),
            "rank {rank}"
        );
        assert_eq!((small.bytes_sent, small.bytes_received), (8 * N, 8 * N));
        // The first `threshold` messages ride the SRQ; the pair is promoted
        // at the entry of the next, once, in each direction; every message
        // after that is one stream segment and one doorbell ring.
        assert_eq!(small.srq_msgs, threshold, "rank {rank}: {small:?}");
        assert_eq!((small.qps_established, small.qps_opened), (1, 1));
        assert_eq!(small.doorbell_rings, N - threshold);
        assert!(small.ring_probes >= N - threshold, "{small:?}");
        assert_eq!((small.stream_alloc_failures, small.rdv_msgs), (0, 0));
        // 8 B is the flag line alone, sent and taken as one line.
        assert_eq!(
            (small.stamped_msgs, small.stamped_reads, small.short_guesses),
            (0, 0, 0)
        );
        // Each 256 B message is five stamped lines, sent in one store stream
        // and taken by the posted receive in one gathered read of the five
        // lines its buffer's length takes.
        assert_eq!((stats.msgs_sent, stats.msgs_received), (2 * N, 2 * N));
        assert_eq!(stats.bytes_sent, (8 + 256) * N);
        assert_eq!(
            (stats.srq_msgs, stats.doorbell_rings),
            (threshold, 2 * N - threshold)
        );
        assert_eq!(
            (stats.stamped_msgs, stats.stamped_reads, stats.short_guesses),
            (N, N, 0),
            "{stats:?}"
        );
        assert_eq!(stats.rdv_msgs, 0);
        // `sendrecv` receives owned: each read guesses the lines of the
        // message before. The first guesses the 256 B leg's five and reads
        // the other five behind them; every other gathers all ten at once.
        let leg = |f: fn(&TransportStats) -> u64| f(&exchanged) - f(&stats);
        assert_eq!(
            (leg(|s| s.msgs_sent), leg(|s| s.msgs_received)),
            (N, N),
            "rank {rank}"
        );
        assert_eq!(
            (
                leg(|s| s.stamped_msgs),
                leg(|s| s.stamped_reads),
                leg(|s| s.short_guesses)
            ),
            (N, N, 1),
            "rank {rank}: {exchanged:?}"
        );
    }
}

/// The data-plane, progress and plan-cache blocks after a fixed 2-rank
/// script of 32 B allreduces on a windowed duplicate of world — two
/// blocking, one nonblocking, two persistent starts, the plans invalidated
/// once in between, the duplicate dropped at the end: every counter `e2e`'s
/// per-layer rows read is driven, and each `Comm::*_stats` snapshot at the
/// end of the body is the `RankReport` block.
#[test]
fn collective_counters_are_pinned_by_a_fixed_script() {
    let config = with_window_headroom(lazy(2), 64 * 1024 * 1024).with_coll_tuning(force_shm());
    let reports = Universe::run(config, |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        let mut v = [comm.rank() as u64 + 1; 4];
        comm.allreduce(&mut v, ReduceOp::Sum)?;
        comm.allreduce(&mut v, ReduceOp::Sum)?;
        assert_eq!(comm.invalidate_plans(), 1);
        let mut nonblocking = comm.iallreduce(&v, ReduceOp::Sum)?;
        comm.wait(&mut nonblocking)?;
        let mut persistent = comm.allreduce_init(&v, ReduceOp::Sum)?;
        for _ in 0..2 {
            comm.start(&mut persistent)?;
            comm.wait(&mut persistent)?;
        }
        persistent.release()?;
        let resident = comm.plan_cache_stats().entries;
        drop(comm);
        Ok((
            resident,
            (
                world.stats(),
                world.data_plane_stats(),
                world.progress_stats(),
                world.plan_cache_stats(),
            ),
        ))
    })
    .unwrap();
    for (rank, ((resident, (stats, dp, progress, plans)), report)) in
        reports.into_iter().enumerate()
    {
        assert_eq!(
            (stats, dp, progress, plans),
            (
                report.stats,
                report.data_plane,
                report.progress,
                report.plan_cache
            ),
            "rank {rank}: RankReport carries the same snapshots"
        );
        // Two windows (world's, the duplicate's); five allreduces on the
        // duplicate's, each one inline exposure and one row of one flag line
        // read; the fifth reuses the first's slot, which costs one completion
        // line read in one more row. The context agreement of `comm_dup` runs
        // on the ring path.
        assert_eq!((dp.window_setups, dp.window_failures), (2, 0), "{dp:?}");
        assert_eq!((dp.shm_colls, dp.ring_colls), (5, 1), "{dp:?}");
        assert_eq!((dp.expose_ops, dp.pull_ops), (5, 5), "{dp:?}");
        assert_eq!((dp.row_reads, dp.notify_waits), (6, 1), "{dp:?}");
        // One nonblocking start and two persistent ones, each waited for.
        assert_eq!(
            (
                progress.colls_started,
                progress.colls_completed,
                progress.persistent_starts
            ),
            (3, 3, 2),
            "{progress:?}"
        );
        // Built, reused, dropped, rebuilt, reused; resident until the
        // duplicate is dropped, which retires its plan cache with it.
        assert_eq!(
            (plans.hits, plans.misses, plans.invalidations, resident),
            (2, 2, 1, 1),
            "{plans:?}"
        );
        assert_eq!(plans.entries, 0, "{plans:?}");
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
