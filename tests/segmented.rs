//! Collectives larger than a window slot run on the window as slot-sized
//! segments, each a window round on a sequence number of its own: byte for
//! byte against the ring oracle (a communicator without a window) in the
//! blocking, `i*` and persistent forms, with persistent requests restarted
//! past the slot rotation and past the collective sequence-tag wrap; a
//! started collective that must move while the rank waits on a later one;
//! what a near-slot allreduce costs per byte next to a smaller one; and a
//! window the pool's headroom cannot hold, which must fail alone, never a
//! later transport object, with RMA windows drawing on the same headroom.

use cmpi::mpi::dataplane::DP_SLOTS;
use cmpi::mpi::{
    CollTuning, Comm, HostPlacement, ReduceOp, Request, Result, Universe, UniverseConfig,
};

mod common;
use common::{force_ring, force_shm};

/// The window the segments run on: 4 KiB slots, so that a few KiB of payload
/// take several.
const ARENA: usize = 16 * 1024;

/// A slot of that window.
const SLOT: usize = ARENA / DP_SLOTS;

/// Payloads either side of one slot, and two and five slots' worth.
const SIZES: [usize; 4] = [SLOT - 1, SLOT + 1, 5 * SLOT / 2, 4 * SLOT + 7];

/// Byte `i` of what `rank` contributes to collective number `round`.
fn byte(rank: usize, round: usize, i: usize) -> u8 {
    (rank * 37 + round * 11 + i * 5 + (i >> 8) + 1) as u8
}

fn payload(rank: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| byte(rank, round, i)).collect()
}

/// Run the persistent request `req` once per input of `inputs` (each
/// written first when this rank contributes) and append every result to
/// `out`.
fn restarts(
    comm: &mut Comm,
    mut req: Request,
    inputs: &[Option<Vec<u8>>],
    out: &mut Vec<u8>,
) -> Result<()> {
    for input in inputs {
        if let Some(input) = input {
            req.write_input(input)?;
        }
        comm.start(&mut req)?;
        comm.wait(&mut req)?;
        out.extend(req.read_result::<u8>()?);
    }
    req.release()
}

/// Wait for `req` and append its result bytes to `out`.
fn finish(comm: &mut Comm, mut req: Request, out: &mut Vec<u8>) -> Result<()> {
    comm.wait(&mut req)?;
    out.extend(req.take_values::<u8>()?);
    Ok(())
}

/// Every segmented collective at every size of [`SIZES`], from every root,
/// blocking, `i*` and persistent — the persistent one restarted
/// `DP_SLOTS + 1` times on fresh inputs — and the labels of the blocking
/// calls.
fn drive(comm: &mut Comm) -> Result<(Vec<u8>, Vec<&'static str>)> {
    let (me, n) = (comm.rank(), comm.size());
    let mut out = Vec::new();
    let mut labels = Vec::new();
    let mut round = 0;
    let mut next = || {
        round += 1;
        round
    };
    let restarts_of = |round: usize, len: usize, mine: bool| -> Vec<Option<Vec<u8>>> {
        (0..=DP_SLOTS)
            .map(|k| mine.then(|| payload(me, round + 1000 * (k + 1), len)))
            .collect()
    };
    for len in SIZES {
        for root in 0..n {
            let r = next();
            let mut buf = payload(me, r, len);
            comm.bcast_into(root, &mut buf)?;
            labels.push(comm.last_coll_algorithm());
            out.extend(&buf);
            let req = comm.ibcast_into(root, &payload(me, r + 1, len))?;
            finish(comm, req, &mut out)?;
            let req = comm.bcast_init(root, &payload(me, r + 2, len))?;
            restarts(comm, req, &restarts_of(r, len, me == root), &mut out)?;

            let sum = comm.reduce(root, &payload(me, r, len), ReduceOp::Sum)?;
            labels.push(comm.last_coll_algorithm());
            out.extend(sum.unwrap_or_default());
            let req = comm.ireduce(root, &payload(me, r + 1, len), ReduceOp::Sum)?;
            finish(comm, req, &mut out)?;
            let req = comm.reduce_init(root, &payload(me, r + 2, len), ReduceOp::Sum)?;
            restarts(comm, req, &restarts_of(r, len, true), &mut out)?;
        }
        let r = next();
        let mut sum = payload(me, r, len);
        comm.allreduce(&mut sum, ReduceOp::Sum)?;
        labels.push(comm.last_coll_algorithm());
        out.extend(&sum);
        let req = comm.iallreduce(&payload(me, r + 1, len), ReduceOp::Sum)?;
        finish(comm, req, &mut out)?;
        let req = comm.allreduce_init(&payload(me, r + 2, len), ReduceOp::Sum)?;
        restarts(comm, req, &restarts_of(r, len, true), &mut out)?;

        let mut all = vec![0u8; n * len];
        comm.allgather_into(&payload(me, r, len), &mut all)?;
        labels.push(comm.last_coll_algorithm());
        out.extend(&all);
        let req = comm.iallgather_into(&payload(me, r + 1, len))?;
        finish(comm, req, &mut out)?;
        let req = comm.allgather_init(&payload(me, r + 2, len))?;
        restarts(comm, req, &restarts_of(r, len, true), &mut out)?;

        // The exchange image, `n` blocks, is the size that must fit a slot.
        let block = len.div_ceil(n);
        let mut recv = vec![0u8; n * block];
        comm.alltoall(&payload(me, r, n * block), &mut recv)?;
        labels.push(comm.last_coll_algorithm());
        out.extend(&recv);
        let req = comm.ialltoall(&payload(me, r + 1, n * block))?;
        finish(comm, req, &mut out)?;
        let req = comm.alltoall_init(&payload(me, r + 2, n * block))?;
        restarts(comm, req, &restarts_of(r, n * block, true), &mut out)?;
    }
    Ok((out, labels))
}

/// `n` ranks on `hosts` hosts, blocked or round-robin, running `tuning`.
fn config(n: usize, hosts: usize, round_robin: bool, tuning: CollTuning) -> UniverseConfig {
    let placement = match round_robin {
        true => HostPlacement::RoundRobin,
        false => HostPlacement::Blocked,
    };
    UniverseConfig::cxl(n)
        .with_hosts(hosts)
        .with_placement(placement)
        .with_coll_tuning(tuning)
}

/// The layouts the byte-equality grid runs, as `(n, hosts, round_robin)`:
/// for each of 2, 3, 5 and 8 ranks one drawn from `seed` (a 64-bit LCG)
/// among its placements on 1–3 hosts — with one host, or one rank per host,
/// the placements agree — besides 8 ranks blocked on 2 hosts, `coll_mix`'s,
/// and 5 dealt round-robin over 3, hosts of two members and of one. What
/// every member of every layout computes, in every shape at every depth the
/// walk can pick, is checked without running it by
/// `plan_check::every_window_shape_computes_its_collective_at_every_depth`;
/// a run adds the transport and the forms.
fn sampled_layouts(mut seed: u64) -> Vec<(usize, usize, bool)> {
    let mut sample = vec![(8, 2, false), (5, 3, true)];
    for n in [2usize, 3, 5, 8] {
        let all: Vec<_> = (1..=3usize.min(n))
            .flat_map(|hosts| [(n, hosts, false), (n, hosts, true)])
            .filter(|&(n, hosts, rr)| !rr || (2..n).contains(&hosts))
            .collect();
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let drawn = all[(seed >> 33) as usize % all.len()];
        if !sample.contains(&drawn) {
            sample.push(drawn);
        }
    }
    sample
}

#[test]
fn segmented_collectives_match_the_ring_in_every_form() {
    for (n, hosts, round_robin) in sampled_layouts(7919) {
        let layout = format!("n={n} on {hosts} hosts, round-robin {round_robin}");
        let run = |tuning: CollTuning| {
            let config = config(n, hosts, round_robin, tuning);
            Universe::run(config, |world: &mut Comm| {
                let mut comm = world.comm_dup()?;
                drive(&mut comm)
            })
            .unwrap_or_else(|e| panic!("{layout}: {e}"))
        };
        let window = CollTuning {
            shm_arena_bytes: ARENA,
            ..force_shm()
        };
        let (shm, ring) = (run(window), run(force_ring()));
        for (rank, (((got, labels), report), ((want, _), _))) in shm.iter().zip(&ring).enumerate() {
            assert!(got == want, "{layout}: rank {rank} diverged from the ring");
            assert!(
                labels.iter().all(|l| l.contains("/shm")),
                "{layout}: rank {rank} left the window: {labels:?}"
            );
            // The one collective off the window is `comm_dup`'s
            // context-id agreement, which runs window-less.
            let dp = &report.data_plane;
            assert_eq!(
                (dp.window_failures, dp.ring_colls),
                (0, 1),
                "{layout}: {dp:?}"
            );
        }
    }
}

#[test]
fn segmented_restarts_cross_the_sequence_tag_wrap() {
    // 1 KiB slots: a 4103-byte bcast and allreduce take five segments each,
    // ten sequence numbers a round, so 220 rounds of restarts run the
    // communicator's sequence past the 2048 its tags wrap at.
    let tuning = CollTuning {
        shm_arena_bytes: 4 * 1024,
        ..force_shm()
    };
    let run = |tuning: CollTuning| {
        Universe::run(config(3, 2, false, tuning), |world: &mut Comm| {
            let mut comm = world.comm_dup()?;
            let me = comm.rank();
            let len = 4 * 1024 + 7;
            let mut bcast = comm.bcast_init(1, &payload(me, 0, len))?;
            let mut sum = comm.allreduce_init(&payload(me, 0, len), ReduceOp::Sum)?;
            let mut out = Vec::new();
            for round in 1..=220 {
                if me == 1 {
                    bcast.write_input(&payload(me, round, len))?;
                }
                sum.write_input(&payload(me, round + 500, len))?;
                comm.start(&mut bcast)?;
                comm.start(&mut sum)?;
                comm.wait(&mut bcast)?;
                comm.wait(&mut sum)?;
                out.extend(bcast.read_result::<u8>()?);
                out.extend(sum.read_result::<u8>()?);
            }
            bcast.release()?;
            sum.release()?;
            Ok((out, comm.last_coll_algorithm()))
        })
        .unwrap()
    };
    let (shm, ring) = (run(tuning), run(force_ring()));
    for (rank, (((got, label), report), ((want, _), _))) in shm.iter().zip(&ring).enumerate() {
        assert!(got == want, "rank {rank} diverged from the ring");
        assert_eq!(*label, "allreduce/shm", "rank {rank}");
        let dp = &report.data_plane;
        assert_eq!(
            (dp.shm_colls, dp.ring_colls),
            (2 * 220, 1),
            "rank {rank}: {dp:?}"
        );
    }
}

#[test]
fn a_later_collective_waits_for_an_earlier_one_to_expose_in_its_slot() {
    // A broadcast and an allreduce of five segments each, started in that
    // order and waited for the other way round: every rank drives the
    // allreduce first, whose first exposure wants the slot of the
    // broadcast's second segment, which the root has not exposed yet. Had it
    // taken the slot, the broadcast's segment would find a later occupant
    // there — one its readers cannot finish with before they read the
    // segment it keeps out — and overwrite it. It waits instead, the wait
    // drives the broadcast, and both come out as on the ring.
    let tuning = CollTuning {
        shm_arena_bytes: ARENA,
        ..force_shm()
    };
    let run = |tuning: CollTuning| {
        Universe::run(config(3, 2, false, tuning), |world: &mut Comm| {
            let mut comm = world.comm_dup()?;
            let me = comm.rank();
            let len = 4 * SLOT + 7;
            let mut bcast = comm.ibcast_into(0, &payload(me, 1, len))?;
            let sum = comm.iallreduce(&payload(me, 2, len), ReduceOp::Sum)?;
            let mut out = Vec::new();
            finish(&mut comm, sum, &mut out)?;
            comm.wait(&mut bcast)?;
            out.extend(bcast.take_values::<u8>()?);
            Ok(out)
        })
        .unwrap()
    };
    let (shm, ring) = (run(tuning), run(force_ring()));
    for (rank, ((got, report), (want, _))) in shm.iter().zip(&ring).enumerate() {
        assert!(got == want, "rank {rank} diverged from the ring");
        assert_eq!(report.data_plane.shm_colls, 2, "rank {rank}");
    }
}

/// How a rank waits for the later of two started collectives.
#[derive(Clone, Copy, Debug)]
enum Between {
    /// A blocking window broadcast of 8 bytes, then `wait` on the earlier.
    Blocking,
    /// A nonblocking one, completed by `test` alone, then `wait`.
    TestLoop,
}

#[test]
fn a_started_collective_moves_while_the_rank_waits_on_a_later_one() {
    // A broadcast or a persistent allreduce of more segments than the window
    // has slots is started; then comes an 8-byte window broadcast, and only
    // then the wait for the first. The root exposes the started one's
    // segments into every slot while it waits to expose the broadcast, and
    // every slot stays held until the other ranks read those segments — which
    // they do only if an idle wait, theirs on the root's row, drives the
    // rank's outstanding operations, in the default (Polling) progress mode.
    // The same holds for a loop of `test` on the later request. At 4 KiB
    // slots on 3 ranks over 2 hosts, and at the default tuning with 2 MiB.
    const MIB: usize = 1024 * 1024;
    let small = CollTuning {
        shm_arena_bytes: ARENA,
        ..force_shm()
    };
    let cases = [
        (3, small, (DP_SLOTS + 1) * SLOT + 7),
        (2, CollTuning::default(), 2 * MIB),
    ];
    for (n, tuning, len) in cases {
        for between in [Between::Blocking, Between::TestLoop] {
            for persistent in [false, true] {
                let case = format!("n={n}, {len} B, {between:?}, persistent {persistent}");
                let run = |tuning: CollTuning| {
                    Universe::run(config(n, 2, false, tuning), move |world: &mut Comm| {
                        let mut comm = world.comm_dup()?;
                        let me = comm.rank();
                        let mut first = if persistent {
                            let mut req =
                                comm.allreduce_init(&payload(me, 1, len), ReduceOp::Sum)?;
                            comm.start(&mut req)?;
                            req
                        } else {
                            comm.ibcast_into(0, &payload(me, 1, len))?
                        };
                        let mut out = payload(me, 2, 8);
                        match between {
                            Between::Blocking => comm.bcast_into(0, &mut out)?,
                            Between::TestLoop => {
                                let mut later = comm.ibcast_into(0, &out)?;
                                while comm.test(&mut later)?.is_none() {}
                                out = later.take_values::<u8>()?;
                            }
                        }
                        comm.wait(&mut first)?;
                        if persistent {
                            out.extend(first.read_result::<u8>()?);
                            first.release()?;
                        } else {
                            out.extend(first.take_values::<u8>()?);
                        }
                        Ok((out, comm.last_coll_algorithm()))
                    })
                    .unwrap_or_else(|e| panic!("{case}: {e}"))
                };
                let (shm, ring) = (run(tuning), run(force_ring()));
                for (rank, (((got, label), report), ((want, _), _))) in
                    shm.iter().zip(&ring).enumerate()
                {
                    assert!(got == want, "{case}: rank {rank} diverged from the ring");
                    assert!(label.contains("/shm"), "{case}: rank {rank} ran {label}");
                    assert_eq!(report.data_plane.shm_colls, 2, "{case}: rank {rank}");
                }
            }
        }
    }
}

/// Virtual µs per byte of an allreduce of `bytes` bytes of `f64` among `n`
/// ranks blocked on 2 hosts, default tuning: the slowest rank's clock over
/// four back-to-back calls.
fn allreduce_us_per_byte(n: usize, sizes: &[usize]) -> Vec<f64> {
    const CALLS: usize = 4;
    let sizes = sizes.to_vec();
    let config = UniverseConfig::cxl(n).with_hosts(2);
    let results = Universe::run(config, move |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        let mut spent = Vec::new();
        for &bytes in &sizes {
            let mut values = vec![1.0f64; bytes / 8];
            comm.barrier()?;
            let start = comm.clock_ns();
            for _ in 0..CALLS {
                comm.allreduce(&mut values, ReduceOp::Sum)?;
            }
            spent.push((comm.clock_ns() - start) / (CALLS * bytes) as f64);
            assert!(
                comm.last_coll_algorithm().starts_with("allreduce/shm"),
                "{bytes} B: {}",
                comm.last_coll_algorithm()
            );
        }
        Ok(spent)
    })
    .unwrap();
    (0..results[0].0.len())
        .map(|i| results.iter().map(|(s, _)| s[i]).fold(0.0, f64::max))
        .collect()
}

#[test]
fn an_allreduce_near_or_past_the_slot_costs_what_a_smaller_one_does_per_byte() {
    const KIB: usize = 1024;
    // 8 ranks on 2 hosts, 512 KiB slots: just below the slot only the direct
    // shape fitted one, and folding every peer's whole vector cost five
    // times the per-byte price of 448 KiB. The two-phase and host-sliced
    // shapes now run in segments.
    let eight = allreduce_us_per_byte(8, &[448 * KIB, 496 * KIB, 511 * KIB]);
    for (bytes, cost) in [(496, eight[1]), (511, eight[2])] {
        assert!(
            cost <= 1.25 * eight[0],
            "{bytes} KiB costs {cost} ns/B, 448 KiB {} ns/B",
            eight[0]
        );
    }
    // 2 ranks on 2 hosts: 1 MiB does not fit a slot, and ran Rabenseifner
    // on the ring at 1.84 times the window's per-byte price.
    let two = allreduce_us_per_byte(2, &[448 * KIB, 1024 * KIB]);
    assert!(
        two[1] <= 1.1 * two[0],
        "1 MiB costs {} ns/B, 448 KiB {} ns/B",
        two[1],
        two[0]
    );
}

#[test]
fn a_window_the_headroom_cannot_hold_fails_alone() {
    // 8 ranks on 2 hosts with an 8 MiB arena each: world's window and its
    // duplicate's are 64 MiB apiece, past the pool's 32 MiB of headroom.
    // They used to be carved out of the room the connection state is sized
    // to need, so a shared receive queue created later found no extent and
    // killed the launch. Now both windows fail, the communicators run
    // ring-only, and nothing else does. An RMA window of 40 MiB takes the
    // whole headroom and more: what it takes past the headroom only a
    // stream can miss — every shared receive queue exists before user code
    // runs — and a stream that finds no room keeps its pair on the queue.
    const MIB: usize = 1024 * 1024;
    for launch in 0..5 {
        let tuning = CollTuning {
            shm_arena_bytes: 8 * MIB,
            ..CollTuning::default()
        };
        let config = UniverseConfig::cxl(8)
            .with_hosts(2)
            .with_coll_tuning(tuning);
        let results = Universe::run(config, move |world: &mut Comm| {
            let win = world.win_allocate(5 * MIB)?;
            let mut comm = world.comm_dup()?;
            let (me, n) = (comm.rank(), comm.size());
            let mut buf = if me == 0 {
                payload(0, launch, MIB)
            } else {
                vec![0; MIB]
            };
            comm.bcast_into(0, &mut buf)?;
            assert!(buf == payload(0, launch, MIB), "launch {launch}: rank {me}");
            for round in 0..3 {
                let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
                let sent = payload(me, launch + round, MIB);
                let (_, got) = comm.sendrecv(next, 7, &sent, prev, 7)?;
                assert!(got == payload(prev, launch + round, MIB), "launch {launch}");
            }
            world.win_fence(win)?;
            world.put(win, (me + 1) % n, 5 * MIB - 8, &[me as u8; 8])?;
            world.win_fence(win)?;
            let mut got = [0u8; 8];
            world.get(win, me, 5 * MIB - 8, &mut got)?;
            assert_eq!(got, [((me + n - 1) % n) as u8; 8], "launch {launch}");
            world.win_free(win)
        })
        .unwrap_or_else(|e| panic!("launch {launch}: {e}"));
        for (rank, (_, report)) in results.iter().enumerate() {
            let dp = &report.data_plane;
            assert_eq!(
                (dp.window_setups, dp.window_failures),
                (0, 2),
                "rank {rank}: {dp:?}"
            );
        }
    }
}

#[test]
fn rma_windows_draw_the_same_headroom_as_the_data_plane_windows() {
    // 8 ranks on 2 hosts, 2 MiB arenas: a data-plane window is 16 MiB, and
    // an RMA window of 1.5 MiB a rank 12 MiB, of the pool's 32 MiB of
    // headroom, which world's window draws from at launch. With the RMA
    // window up, the duplicate's data-plane window must fail rather than
    // take the room the connection state is sized to need — the shared
    // receive queues and streams of the 1 MiB exchanges that follow; once
    // the RMA window is freed, its room serves the next duplicate's window.
    // The RMA window works meanwhile.
    const MIB: usize = 1024 * 1024;
    const SIZE: usize = 3 * MIB / 2;
    for launch in 0..3 {
        let tuning = CollTuning {
            shm_arena_bytes: 2 * MIB,
            ..force_shm()
        };
        let config = UniverseConfig::cxl(8)
            .with_hosts(2)
            .with_coll_tuning(tuning);
        let results = Universe::run(config, move |world: &mut Comm| {
            let (me, n) = (world.rank(), world.size());
            let win = world.win_allocate(SIZE)?;
            let exchange = |comm: &mut Comm, round: usize| -> Result<()> {
                let mut buf = if me == 0 {
                    payload(0, launch + round, MIB)
                } else {
                    vec![0; MIB]
                };
                comm.bcast_into(0, &mut buf)?;
                assert!(buf == payload(0, launch + round, MIB), "rank {me}");
                let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
                let sent = payload(me, launch + round, MIB);
                let (_, got) = comm.sendrecv(next, 7, &sent, prev, 7)?;
                assert!(got == payload(prev, launch + round, MIB), "rank {me}");
                Ok(())
            };
            let mut dup = world.comm_dup()?;
            exchange(&mut dup, 0)?;
            world.win_fence(win)?;
            world.put(win, (me + 1) % n, SIZE - 8, &[me as u8; 8])?;
            world.win_fence(win)?;
            let mut got = [0u8; 8];
            world.get(win, me, SIZE - 8, &mut got)?;
            assert_eq!(got, [((me + n - 1) % n) as u8; 8], "rank {me}");
            world.win_free(win)?;
            let mut again = world.comm_dup()?;
            exchange(&mut again, 1)?;
            Ok(again.last_coll_algorithm())
        })
        .unwrap_or_else(|e| panic!("launch {launch}: {e}"));
        for (rank, (label, report)) in results.iter().enumerate() {
            let dp = &report.data_plane;
            assert!(label.contains("/shm"), "rank {rank} ran {label}");
            assert_eq!(
                (dp.window_setups, dp.window_failures),
                (2, 1),
                "launch {launch}, rank {rank}: {dp:?}"
            );
        }
    }
}
