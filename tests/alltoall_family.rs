//! The alltoall family, end-to-end: the size-adaptive regular exchange
//! (Bruck / pairwise / hierarchical / shm single-copy) cross-checked against
//! a naive isend/irecv reference on non-power-of-two rank counts and both
//! transports, through the blocking, nonblocking and persistent paths;
//! irregular-count (`alltoallv`/`alltoallw`) property tests; the zero-count
//! guarantees (empty segments are message-free); and the irregular exchange
//! on the shared window — empty exchanges, silent ranks, an oversize pair,
//! out-of-order completion, restarts — byte for byte against the forced ring
//! and TCP.

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::coll::ALLTOALL_BRUCK_MAX_BYTES;
use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::{Comm, Request, Universe, UniverseConfig};

mod common;
use common::{
    configs, force_hier, force_ring, force_shm, matrix_hosts, past, with_window_headroom,
};

/// The canonical per-element pattern of the block rank `s` sends to rank
/// `d`: unique per (source, destination, element index).
fn pattern(s: usize, d: usize, e: usize) -> i64 {
    (s as i64) * 1_000_000_000 + (d as i64) * 1_000_000 + e as i64
}

/// Naive alltoall reference over point-to-point nonblocking sends/receives:
/// each rank isends block `d` to `d` and irecvs block `s` from `s` under
/// per-source tags, then waits for everything.
fn naive_alltoall(comm: &mut Comm, send: &[i64], block: usize) -> cmpi::mpi::Result<Vec<i64>> {
    let n = comm.size();
    let me = comm.rank();
    let mut out = vec![0i64; n * block];
    out[me * block..(me + 1) * block].copy_from_slice(&send[me * block..(me + 1) * block]);
    let mut reqs: Vec<Request> = Vec::new();
    let mut recv_slots: Vec<usize> = Vec::new();
    for s in 0..n {
        if s == me {
            continue;
        }
        reqs.push(comm.irecv_into(
            Some(s),
            Some(s as i32),
            vec![0u8; block * std::mem::size_of::<i64>()],
        )?);
        recv_slots.push(s);
    }
    for d in 0..n {
        if d == me {
            continue;
        }
        let bytes: Vec<u8> = send[d * block..(d + 1) * block]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        reqs.push(comm.isend(d, me as i32, &bytes)?);
    }
    comm.wait_all(&mut reqs)?;
    for (i, s) in recv_slots.into_iter().enumerate() {
        let vals: Vec<i64> = reqs[i].take_values()?;
        out[s * block..(s + 1) * block].copy_from_slice(&vals[..block]);
    }
    Ok(out)
}

/// Run the blocking, nonblocking and persistent alltoall paths over `send`
/// and assert all three match `expect`; returns the blocking call's
/// algorithm label.
fn drive_all_paths(comm: &mut Comm, send: &[i64], expect: &[i64]) -> cmpi::mpi::Result<String> {
    // Blocking.
    let mut recv = vec![0i64; send.len()];
    comm.alltoall(send, &mut recv)?;
    assert_eq!(recv, expect, "blocking alltoall mismatch");
    let label = comm.last_coll_algorithm().to_string();

    // Nonblocking.
    let mut r = comm.ialltoall(send)?;
    comm.wait(&mut r)?;
    let nb: Vec<i64> = r.take_values()?;
    assert_eq!(nb, expect, "ialltoall mismatch");

    // Persistent: two starts, the second after rewriting the input with a
    // shifted pattern to prove the rebind actually takes effect.
    let mut p = comm.alltoall_init(send)?;
    comm.start(&mut p)?;
    comm.wait(&mut p)?;
    let pr: Vec<i64> = p.read_result()?;
    assert_eq!(pr, expect, "persistent alltoall mismatch (start 1)");
    let shifted: Vec<i64> = send.iter().map(|v| v + 7).collect();
    p.write_input(&shifted)?;
    comm.start(&mut p)?;
    comm.wait(&mut p)?;
    let pr: Vec<i64> = p.read_result()?;
    let expect2: Vec<i64> = expect.iter().map(|v| v + 7).collect();
    assert_eq!(pr, expect2, "persistent alltoall mismatch (start 2)");
    p.release()?;
    Ok(label)
}

#[test]
fn alltoall_matches_naive_reference_across_algorithms() {
    for n in [3usize, 5, 6, 7] {
        for (label, config) in configs(n) {
            // Blocks on each side of the Bruck crossover, then the hierarchy.
            for (tuning, block, tuning_name) in [
                (force_ring(), 5, "bruck"),
                (
                    force_ring(),
                    past::<i64>(ALLTOALL_BRUCK_MAX_BYTES),
                    "pairwise",
                ),
                (force_hier(), 5, "hier"),
            ] {
                let config = config.clone().with_coll_tuning(tuning);
                let results = Universe::run(config, move |comm: &mut Comm| {
                    let n = comm.size();
                    let me = comm.rank();
                    let send: Vec<i64> = (0..n * block)
                        .map(|i| pattern(me, i / block, i % block))
                        .collect();
                    let expect = naive_alltoall(comm, &send, block)?;
                    // Cross-check the reference itself against the closed
                    // form before trusting it.
                    for s in 0..n {
                        for e in 0..block {
                            assert_eq!(expect[s * block + e], pattern(s, me, e));
                        }
                    }
                    drive_all_paths(comm, &send, &expect)
                })
                .unwrap_or_else(|e| panic!("{label} n={n} {tuning_name}: {e}"));
                for (algo, _) in &results {
                    match tuning_name {
                        "bruck" => assert_eq!(algo, "alltoall/bruck", "{label} n={n}"),
                        "pairwise" => assert_eq!(algo, "alltoall/pairwise", "{label} n={n}"),
                        // Force composes whenever the communicator actually
                        // spans ≥ 2 hosts; single-host matrix legs stay flat.
                        "hier" => {
                            if matrix_hosts() >= 2 {
                                assert_eq!(algo, "alltoall/hier+pairwise", "{label} n={n}");
                            } else {
                                assert!(algo.starts_with("alltoall/"), "{label} n={n}: {algo}");
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
    }
}

#[test]
fn alltoall_shm_single_copy_matches_reference() {
    for n in [3usize, 5, 6, 7] {
        let config = with_window_headroom(
            UniverseConfig::cxl_small(n).with_hosts(matrix_hosts()),
            64 * 1024 * 1024,
        )
        .with_coll_tuning(force_shm());
        let results = Universe::run(config, move |comm: &mut Comm| {
            let n = comm.size();
            let me = comm.rank();
            let block = 9usize;
            let send: Vec<i64> = (0..n * block)
                .map(|i| pattern(me, i / block, i % block))
                .collect();
            let expect: Vec<i64> = (0..n * block)
                .map(|i| pattern(i / block, me, i % block))
                .collect();
            drive_all_paths(comm, &send, &expect)
        })
        .unwrap_or_else(|e| panic!("shm n={n}: {e}"));
        for (algo, _) in &results {
            assert_eq!(algo, "alltoall/shm", "n={n}");
        }
    }
}

/// Deterministic pseudo-random per-pair segment size in 0..4 (zeros are
/// frequent on purpose — they must be free). Symmetric by construction:
/// both sides of a (src, dst) pair compute the same value.
fn seg(src: usize, dst: usize, salt: usize) -> usize {
    let x = src
        .wrapping_mul(2654435761)
        .wrapping_add(dst.wrapping_mul(40503))
        .wrapping_add(salt.wrapping_mul(9176));
    (x >> 7) % 4
}

#[test]
fn alltoallv_irregular_counts_property() {
    for n in [3usize, 5, 7] {
        for (label, config) in configs(n) {
            for salt in 0..3usize {
                let results = Universe::run(config.clone(), move |comm: &mut Comm| {
                    let n = comm.size();
                    let me = comm.rank();
                    let send_counts: Vec<usize> = (0..n).map(|d| seg(me, d, salt)).collect();
                    let recv_counts: Vec<usize> = (0..n).map(|s| seg(s, me, salt)).collect();
                    let mut send: Vec<i64> = Vec::new();
                    for (d, &c) in send_counts.iter().enumerate() {
                        send.extend((0..c).map(|e| pattern(me, d, e)));
                    }
                    let mut expect: Vec<i64> = Vec::new();
                    for (s, &c) in recv_counts.iter().enumerate() {
                        expect.extend((0..c).map(|e| pattern(s, me, e)));
                    }

                    // Blocking.
                    let got = comm.alltoallv(&send, &send_counts, &recv_counts)?;
                    assert_eq!(got, expect, "alltoallv mismatch");

                    // Nonblocking.
                    let mut r = comm.ialltoallv(&send, &send_counts, &recv_counts)?;
                    comm.wait(&mut r)?;
                    let nb: Vec<i64> = r.take_values()?;
                    assert_eq!(nb, expect, "ialltoallv mismatch");

                    // Persistent, restarted with rewritten input.
                    let mut p = comm.alltoallv_init(&send, &send_counts, &recv_counts)?;
                    comm.start(&mut p)?;
                    comm.wait(&mut p)?;
                    let pr: Vec<i64> = p.read_result()?;
                    assert_eq!(pr, expect, "alltoallv_init mismatch (start 1)");
                    let shifted: Vec<i64> = send.iter().map(|v| v + 3).collect();
                    p.write_input(&shifted)?;
                    comm.start(&mut p)?;
                    comm.wait(&mut p)?;
                    let pr: Vec<i64> = p.read_result()?;
                    let expect2: Vec<i64> = expect.iter().map(|v| v + 3).collect();
                    assert_eq!(pr, expect2, "alltoallv_init mismatch (start 2)");
                    p.release()?;

                    // Byte-granular variant over the same shape.
                    let send_b: Vec<usize> = send_counts.iter().map(|&c| c * 8).collect();
                    let recv_b: Vec<usize> = recv_counts.iter().map(|&c| c * 8).collect();
                    let send_bytes: Vec<u8> = send.iter().flat_map(|v| v.to_le_bytes()).collect();
                    let expect_bytes: Vec<u8> =
                        expect.iter().flat_map(|v| v.to_le_bytes()).collect();
                    let got = comm.alltoallw_bytes(&send_bytes, &send_b, &recv_b)?;
                    assert_eq!(got, expect_bytes, "alltoallw mismatch");
                    let mut r = comm.ialltoallw(&send_bytes, &send_b, &recv_b)?;
                    comm.wait(&mut r)?;
                    let nb: Vec<u8> = r.take_values()?;
                    assert_eq!(nb, expect_bytes, "ialltoallw mismatch");
                    let mut p = comm.alltoallw_init(&send_bytes, &send_b, &recv_b)?;
                    comm.start(&mut p)?;
                    comm.wait(&mut p)?;
                    let pr: Vec<u8> = p.read_result()?;
                    assert_eq!(pr, expect_bytes, "alltoallw_init mismatch");
                    p.release()?;
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{label} n={n} salt={salt}: {e}"));
                assert_eq!(results.len(), n);
            }
        }
    }
}

#[test]
fn zero_count_segments_are_message_free() {
    for (label, config) in configs(4) {
        Universe::run(config, |comm: &mut Comm| {
            let n = comm.size();
            let me = comm.rank();

            // All-empty exchange: correct, empty, and not a single message.
            let zeros = vec![0usize; n];
            let before = comm.stats();
            let got: Vec<i64> = comm.alltoallv(&[], &zeros, &zeros)?;
            let after = comm.stats();
            assert!(got.is_empty());
            assert_eq!(
                after.msgs_sent, before.msgs_sent,
                "all-empty alltoallv sent a message"
            );
            assert_eq!(after.bytes_sent, before.bytes_sent);

            // Self-only exchange: data moves, still message-free.
            let mut counts = vec![0usize; n];
            counts[me] = 3;
            let send: Vec<i64> = (0..3).map(|e| pattern(me, me, e)).collect();
            let before = comm.stats();
            let got = comm.alltoallv(&send, &counts, &counts)?;
            let after = comm.stats();
            assert_eq!(got, send, "self-only alltoallv lost data");
            assert_eq!(
                after.msgs_sent, before.msgs_sent,
                "self-only alltoallv sent a message"
            );

            // Single sparse edge 0 → 1: nothing leaves anyone but rank 0, and
            // rank 0 sends exactly one message — or none, where rank 1 pulls
            // the segment out of the window instead.
            let mut send_counts = vec![0usize; n];
            let mut recv_counts = vec![0usize; n];
            if me == 0 {
                send_counts[1] = 2;
            }
            if me == 1 {
                recv_counts[0] = 2;
            }
            let send: Vec<i64> = if me == 0 {
                (0..2).map(|e| pattern(0, 1, e)).collect()
            } else {
                Vec::new()
            };
            let before = comm.stats();
            let got = comm.alltoallv(&send, &send_counts, &recv_counts)?;
            let after = comm.stats();
            let sent = after.msgs_sent - before.msgs_sent;
            if me == 0 {
                let pulled = comm.last_coll_algorithm() == "alltoallv/shm";
                assert_eq!(sent, u64::from(!pulled), "one message, or one piece");
                assert!(got.is_empty());
            } else {
                assert_eq!(sent, 0, "rank {me} sent a message on an empty edge");
            }
            if me == 1 {
                assert_eq!(got, vec![pattern(0, 1, 0), pattern(0, 1, 1)]);
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn alltoall_zero_block_is_free() {
    for (label, config) in configs(3) {
        Universe::run(config, |comm: &mut Comm| {
            let before = comm.stats();
            let send: Vec<i64> = Vec::new();
            let mut recv: Vec<i64> = Vec::new();
            comm.alltoall(&send, &mut recv)?;
            let after = comm.stats();
            assert_eq!(comm.last_coll_algorithm(), "alltoall/local");
            assert_eq!(after.msgs_sent, before.msgs_sent);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

// ----------------------------------------------------------------------
// The irregular exchange on the shared window
// ----------------------------------------------------------------------

/// The three ways an irregular exchange travels: pulled out of the shared
/// window (64 KiB slots, so a stride of 64 KiB / `n`), as messages on the CXL
/// queues (forced ring), as messages over TCP.
fn irregular_paths(n: usize) -> [(&'static str, UniverseConfig); 3] {
    let cxl = with_window_headroom(
        UniverseConfig::cxl_small(n).with_hosts(matrix_hosts()),
        64 * 1024 * 1024,
    );
    [
        ("window", cxl.clone().with_coll_tuning(force_shm())),
        ("ring", cxl.with_coll_tuning(force_ring())),
        (
            "tcp",
            UniverseConfig::tcp(n, TcpNic::MellanoxCx6Dx).with_hosts(matrix_hosts()),
        ),
    ]
}

/// Run `body` at `n` ranks on every path: the elements each rank received
/// must be the same on all three. Returns what else `body` reports (counters,
/// labels — which differ by path) from the window path, with its reports.
fn on_every_path<X: Send + 'static>(
    n: usize,
    body: impl Fn(&mut Comm) -> cmpi::mpi::Result<(Vec<i64>, X)> + Send + Sync + Copy + 'static,
) -> Vec<(X, cmpi::mpi::RankReport)> {
    let [window, ring, tcp] = irregular_paths(n).map(|(label, config)| {
        Universe::run(config, body).unwrap_or_else(|e| panic!("{label} n={n}: {e}"))
    });
    for (rank, ((w, r), t)) in window.iter().zip(&ring).zip(&tcp).enumerate() {
        assert!(w.0 .0 == r.0 .0, "n={n} rank {rank}: window vs ring");
        assert!(w.0 .0 == t.0 .0, "n={n} rank {rank}: window vs tcp");
    }
    window
        .into_iter()
        .map(|((_, extra), report)| (extra, report))
        .collect()
}

/// This rank's side of an exchange in which `src` sends `count(src, dst)`
/// elements to `dst`: the packed send image, both count vectors and the
/// receive image it must produce.
fn shape(
    comm: &Comm,
    salt: i64,
    count: impl Fn(usize, usize) -> usize,
) -> (Vec<i64>, Vec<usize>, Vec<usize>, Vec<i64>) {
    let (n, me) = (comm.size(), comm.rank());
    let send_counts: Vec<usize> = (0..n).map(|d| count(me, d)).collect();
    let recv_counts: Vec<usize> = (0..n).map(|s| count(s, me)).collect();
    let image = |counts: &[usize], at: &dyn Fn(usize, usize) -> i64| -> Vec<i64> {
        counts
            .iter()
            .enumerate()
            .flat_map(|(peer, &c)| (0..c).map(move |e| at(peer, e) + salt))
            .collect()
    };
    let send = image(&send_counts, &|d, e| pattern(me, d, e));
    let expect = image(&recv_counts, &|s, e| pattern(s, me, e));
    (send, send_counts, recv_counts, expect)
}

/// One blocking `alltoallv` of that shape, checked; what it received and the
/// algorithm it ran.
fn exchange(
    comm: &mut Comm,
    salt: i64,
    count: impl Fn(usize, usize) -> usize,
) -> cmpi::mpi::Result<(Vec<i64>, &'static str)> {
    let (send, send_counts, recv_counts, expect) = shape(comm, salt, count);
    let got = comm.alltoallv(&send, &send_counts, &recv_counts)?;
    assert_eq!(got, expect, "rank {} salt {salt}", comm.rank());
    Ok((got, comm.last_coll_algorithm()))
}

#[test]
fn exchanges_with_nothing_to_pull_hold_no_slot() {
    // A writer's slot is held for the peers that will pull from it, and for
    // nobody when there are none: nobody moves a completion line for an
    // exchange it read nothing of, so a slot held for it would never come
    // free — and DP_SLOTS collectives later every rank would wait on every
    // other for good.
    for n in [2usize, 8] {
        on_every_path(n, |comm: &mut Comm| {
            let mut out = Vec::new();
            for round in 0..3 * DP_SLOTS {
                let own = |s: usize, d: usize| if s == d { 5 + round % 3 } else { 0 };
                out.extend(exchange(comm, round as i64, own)?.0);
            }
            out.extend(exchange(comm, 99, |s, d| 1 + (s + 2 * d) % 4)?.0);
            Ok((out, ()))
        });
    }
}

#[test]
fn ranks_that_read_nothing_are_not_waited_for() {
    // Rank 0 receives nothing and the last rank sends nothing, for more
    // rounds than a writer has slots, while the others exchange: every slot
    // is held for exactly the peers sent something. A broadcast from rank 0
    // between the rounds — its root reads nothing either — keeps rank 0's
    // own exposures coming round.
    for n in [2usize, 8] {
        on_every_path(n, |comm: &mut Comm| {
            let n = comm.size();
            let mut out = Vec::new();
            for round in 0..3 * DP_SLOTS {
                let count = |s: usize, d: usize| {
                    let silent = d == 0 || s == n - 1;
                    usize::from(!silent) * (1 + seg(s, d, round))
                };
                out.extend(exchange(comm, round as i64, count)?.0);
                let mut word = [if comm.rank() == 0 { round as i64 } else { -1 }; 3];
                comm.bcast_into(0, &mut word)?;
                out.extend(word);
            }
            Ok((out, ()))
        });
    }
}

#[test]
fn an_oversize_pair_goes_by_message_and_only_that_pair() {
    // 300 KiB each way between ranks 2 and 5, 1 KiB between everybody else:
    // the stride is 8 KiB, so that pair — and nobody else, and nobody had to
    // agree on it — exchanges messages, in the same plan that pulls the rest.
    const PAIR: (usize, usize) = (2, 5);
    let count = |s: usize, d: usize| {
        if (s, d) == PAIR || (d, s) == PAIR {
            300 * 128
        } else {
            128
        }
    };
    let results = on_every_path(8, move |comm: &mut Comm| {
        let (msgs, exposed) = (
            comm.stats().msgs_sent,
            comm.data_plane_stats().bytes_exposed,
        );
        let (got, _) = exchange(comm, 0, count)?;
        let msgs = comm.stats().msgs_sent - msgs;
        let exposed = comm.data_plane_stats().bytes_exposed - exposed;
        Ok((got, (msgs, exposed)))
    });
    for (rank, ((msgs, exposed), report)) in results.iter().enumerate() {
        let in_pair = rank == PAIR.0 || rank == PAIR.1;
        let label = if in_pair {
            "alltoallv/shm+pairwise"
        } else {
            "alltoallv/shm"
        };
        assert!(
            report.coll_algos.iter().any(|(l, c)| l == label && *c == 1),
            "rank {rank}: {:?}",
            report.coll_algos
        );
        assert_eq!(*msgs, u64::from(in_pair), "rank {rank}");
        assert_eq!(*exposed, (7 - u64::from(in_pair)) * 1024, "rank {rank}");
    }
}

#[test]
fn every_form_of_the_irregular_exchange_rides_the_window() {
    for n in [2usize, 8] {
        let results = on_every_path(n, |world: &mut Comm| {
            let mut out = Vec::new();
            let count = |salt: usize| move |s: usize, d: usize| seg(s, d, salt) * 3;

            // Two outstanding, completed in reverse order.
            let (send_a, sc_a, rc_a, expect_a) = shape(world, 1, count(1));
            let (send_b, sc_b, rc_b, expect_b) = shape(world, 2, count(2));
            let mut a = world.ialltoallv(&send_a, &sc_a, &rc_a)?;
            let mut b = world.ialltoallv(&send_b, &sc_b, &rc_b)?;
            world.wait(&mut b)?;
            world.wait(&mut a)?;
            assert_eq!(b.take_values::<i64>()?, expect_b);
            assert_eq!(a.take_values::<i64>()?, expect_a);
            out.extend(expect_a);

            // A persistent exchange restarted past every slot, its input
            // rewritten between starts.
            let (send, sc, rc, expect) = shape(world, 0, count(3));
            let mut p = world.alltoallv_init(&send, &sc, &rc)?;
            for start in 0..3 * DP_SLOTS as i64 {
                let shifted: Vec<i64> = send.iter().map(|v| v + start).collect();
                p.write_input(&shifted)?;
                world.start(&mut p)?;
                world.wait(&mut p)?;
                let got: Vec<i64> = p.read_result()?;
                assert!(got.iter().zip(&expect).all(|(g, e)| *g == e + start));
                out.extend(got);
            }
            p.release()?;

            // Byte counts.
            let (send, sc, rc, expect) = shape(world, 4, count(4));
            let bytes = |v: &[i64]| v.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
            let times8 = |c: &[usize]| c.iter().map(|c| c * 8).collect::<Vec<usize>>();
            let got = world.alltoallw_bytes(&bytes(&send), &times8(&sc), &times8(&rc))?;
            assert_eq!(got, bytes(&expect));
            let by_bytes = world.last_coll_algorithm();
            out.extend(expect);

            // One half of a split.
            let mut half = world
                .comm_split((world.rank() % 2) as i32, 0)?
                .expect("every rank has a color");
            let (got, in_half) = exchange(&mut half, 5, count(5))?;
            out.extend(got);
            Ok((out, (by_bytes, in_half)))
        });
        for ((by_bytes, in_half), _) in &results {
            assert_eq!(*by_bytes, "alltoallw/shm");
            // A half of two ranks is a single rank: it has no window.
            assert_eq!(*in_half == "alltoallv/shm", n > 2);
        }
    }
}

#[test]
fn what_is_left_on_p2p_sends_first() {
    // 1 MiB per peer in both directions — twice what a pair's stream holds —
    // on the message path of all three transports: every rank sends before
    // it receives, and a blocked send drains what arrives.
    let mib = 1024 * 1024 / 8;
    let paths = [
        UniverseConfig::cxl(3)
            .with_hosts(matrix_hosts())
            .with_coll_tuning(force_ring()),
        UniverseConfig::tcp(3, TcpNic::StandardEthernet).with_hosts(matrix_hosts()),
        UniverseConfig::tcp(3, TcpNic::MellanoxCx6Dx).with_hosts(matrix_hosts()),
    ];
    for config in paths {
        Universe::run(config, move |comm: &mut Comm| {
            let (_, algo) = exchange(comm, 0, |_, _| mib)?;
            assert_eq!(algo, "alltoallv/pairwise");
            Ok(())
        })
        .unwrap();
    }
    // And costs what eight ranks' worth of overlapped messages cost: on the
    // parent, where half of every step's ranks received first, 64 B per peer
    // took ≈ 146 virtual µs.
    let ring = UniverseConfig::cxl(8)
        .with_hosts(2)
        .with_coll_tuning(force_ring());
    let per_call = Universe::run(ring, |comm: &mut Comm| {
        for warm in 0..4 {
            exchange(comm, warm, |_, _| 8)?;
        }
        comm.barrier()?;
        let start = comm.clock_ns();
        for round in 0..16 {
            exchange(comm, round, |_, _| 8)?;
        }
        Ok((comm.clock_ns() - start) / 16.0)
    })
    .unwrap();
    for (rank, (ns, _)) in per_call.iter().enumerate() {
        assert!(*ns <= 90_000.0, "rank {rank}: {ns} ns per alltoallv");
    }
}
