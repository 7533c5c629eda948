//! The host-sliced window shapes — bcast, allgather and allreduce, where
//! whatever one host exposes crosses the device once per receiving host and
//! is relayed there out of the shared cache — byte for byte against the ring
//! oracle (a communicator without a window), in the blocking, `i*` and
//! persistent forms, over blocked and round-robin placements, uneven hosts
//! included, from every broadcast root, at payloads just past where the
//! cost walk turns to them and further out.

use cmpi::mpi::{
    CollTuning, Comm, HierarchyMode, HostPlacement, ReduceOp, Request, Result, Universe,
    UniverseConfig,
};

mod common;
use common::{force_ring, with_window_headroom};

/// Byte `i` of what `rank` contributes to collective number `round`.
fn byte(rank: usize, round: usize, i: usize) -> u8 {
    (rank * 37 + round * 11 + i * 5 + 1) as u8
}

fn payload(rank: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| byte(rank, round, i)).collect()
}

/// Words of an allreduce contribution: wrapping sums, exact on every path.
fn words(rank: usize, round: usize, count: usize) -> Vec<u64> {
    (0..count)
        .map(|i| (rank as u64 + 1) * 0x9E37_79B9 + (round * count + i) as u64)
        .collect()
}

/// Wait for `req` and append its result bytes to `out`.
fn finish(comm: &mut Comm, mut req: Request, out: &mut Vec<u8>) -> Result<()> {
    comm.wait(&mut req)?;
    out.extend(req.take_values::<u8>()?);
    Ok(())
}

/// Start a persistent request twice, the second time on `second` (when this
/// rank contributes), and append both results to `out`.
fn twice(
    comm: &mut Comm,
    mut req: Request,
    second: Option<&[u8]>,
    out: &mut Vec<u8>,
) -> Result<()> {
    for start in 0..2 {
        if let (1, Some(input)) = (start, second) {
            req.write_input(input)?;
        }
        comm.start(&mut req)?;
        comm.wait(&mut req)?;
        out.extend(req.read_result::<u8>()?);
    }
    req.release()
}

/// Payloads of the two rounds of [`drive`]: the first just past the walk's
/// crossover at 8 ranks on 2 hosts, blocked, and the second past it in every
/// layout of six ranks or more here (bcast up to 29 000 B, allgather up to
/// 25 250 B per block, allreduce on 2 hosts up to 11 250 `u64`).
const BCAST: [usize; 2] = [15_600, 32 * 1024];
/// Allgather blocks: just past 3 946 B, and the far round.
const ALLGATHER: [usize; 2] = [3_950, 26_000];
/// Allreduce `u64` counts: the first past 22 737 B, and the far round.
const ALLREDUCE: [usize; 2] = [2_843, 11_500];

/// Every result byte this rank sees, in call order, and the labels of the
/// blocking calls.
fn drive(comm: &mut Comm) -> Result<(Vec<u8>, Vec<String>)> {
    let (n, me) = (comm.size(), comm.rank());
    let mut out = Vec::new();
    let mut labels = Vec::new();
    let mut round = 0;
    for (bcast, (block, count)) in BCAST.into_iter().zip(ALLGATHER.into_iter().zip(ALLREDUCE)) {
        for root in 0..n {
            round += 1;
            let mut buf = payload(root, round, bcast);
            if me != root {
                buf.fill(0);
            }
            comm.bcast_into(root, &mut buf)?;
            labels.push(comm.last_coll_algorithm().to_string());
            out.extend(&buf);
            let req = comm.ibcast_into(root, &payload(root, round + 100, bcast))?;
            finish(comm, req, &mut out)?;
            let req = comm.bcast_init(root, &payload(root, round + 200, bcast))?;
            let second = payload(root, round + 300, bcast);
            twice(comm, req, (me == root).then_some(&second[..]), &mut out)?;
        }
        round += 1;
        let mut all = vec![0u8; n * block];
        comm.allgather_into(&payload(me, round, block), &mut all)?;
        labels.push(comm.last_coll_algorithm().to_string());
        out.extend(&all);
        let req = comm.iallgather_into(&payload(me, round + 100, block))?;
        finish(comm, req, &mut out)?;
        let req = comm.allgather_init(&payload(me, round + 200, block))?;
        let second = payload(me, round + 300, block);
        twice(comm, req, Some(&second), &mut out)?;

        let mut v = words(me, round, count);
        comm.allreduce(&mut v, ReduceOp::Sum)?;
        labels.push(comm.last_coll_algorithm().to_string());
        out.extend(v.iter().flat_map(|x| x.to_le_bytes()));
        let req = comm.iallreduce(&words(me, round + 100, count), ReduceOp::Sum)?;
        finish(comm, req, &mut out)?;
        let req = comm.allreduce_init(&words(me, round + 200, count), ReduceOp::Sum)?;
        let second: Vec<u8> = words(me, round + 300, count)
            .iter()
            .flat_map(|x| x.to_le_bytes())
            .collect();
        twice(comm, req, Some(&second), &mut out)?;
    }
    Ok((out, labels))
}

#[test]
fn host_sliced_shapes_match_the_ring_in_every_form() {
    let window = CollTuning {
        hierarchy: HierarchyMode::Off,
        ..CollTuning::default()
    };
    let mut sliced = Vec::new();
    for n in [3usize, 5, 6, 7, 8] {
        for hosts in [2, 3] {
            for round_robin in [false, true] {
                let layout = format!("n={n} on {hosts} hosts, round-robin {round_robin}");
                let run = |tuning: CollTuning| {
                    let placement = match round_robin {
                        true => HostPlacement::RoundRobin,
                        false => HostPlacement::Blocked,
                    };
                    let config = UniverseConfig::cxl_small(n)
                        .with_hosts(hosts)
                        .with_placement(placement);
                    let config = with_window_headroom(config, 64 * 1024 * 1024);
                    Universe::run(config.with_coll_tuning(tuning), |world: &mut Comm| {
                        let mut comm = world.comm_dup()?;
                        drive(&mut comm)
                    })
                    .unwrap_or_else(|e| panic!("{layout}: {e}"))
                };
                let (shm, ring) = (run(window), run(force_ring()));
                for (rank, (((got, labels), _), ((want, _), _))) in
                    shm.iter().zip(&ring).enumerate()
                {
                    assert!(got == want, "{layout}: rank {rank} diverged from the ring");
                    assert!(
                        labels.iter().all(|l| l.contains("/shm")),
                        "{layout}: {labels:?}"
                    );
                    sliced.extend(labels.iter().filter(|l| l.ends_with("+hosts")).cloned());
                }
                // Labels per round: `n` bcasts, the allgather, the allreduce.
                let labels = &shm[0].0 .1;
                let far = match (n, hosts, round_robin) {
                    (8, 2, false) => &labels[..],
                    (6.., ..) => &labels[n + 2..],
                    _ => &[],
                };
                // On 3 hosts the walk keeps the allreduce's other shapes.
                let three_host_allreduce = |l: &String| hosts == 3 && l.starts_with("allreduce");
                assert!(
                    far.iter()
                        .all(|l| l.ends_with("/shm+hosts") || three_host_allreduce(l)),
                    "{layout}: {far:?}"
                );
            }
        }
    }
    for op in ["bcast", "allgather", "allreduce"] {
        assert!(
            sliced.contains(&format!("{op}/shm+hosts")),
            "{op} never sliced"
        );
    }
}
