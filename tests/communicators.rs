//! Integration tests of the communicator redesign: `comm_split` partition
//! correctness for arbitrary color/key assignments, context-id isolation
//! across concurrently used communicators on both transports, and subset
//! barriers + typed collectives on split halves (the acceptance scenario).

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::{Comm, ReduceOp, Universe, UniverseConfig, RETIRED_CTX, WORLD_CTX};

/// Minimal xorshift64* PRNG for reproducible pseudo-random cases.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + (self.next_u64() % (hi - lo) as u64) as i32
    }
}

/// Reference model of `MPI_Comm_split`: for `world_rank` with `(color, key)`
/// assignments indexed by world rank, returns `None` for negative colors or
/// `Some((expected_local_rank, expected_world_members))`.
fn split_model(assignments: &[(i32, i32)], world_rank: usize) -> Option<(usize, Vec<usize>)> {
    let (my_color, _) = assignments[world_rank];
    if my_color < 0 {
        return None;
    }
    let mut members: Vec<(i32, usize)> = assignments
        .iter()
        .enumerate()
        .filter(|(_, &(c, _))| c == my_color)
        .map(|(r, &(_, k))| (k, r))
        .collect();
    members.sort_unstable();
    let world_members: Vec<usize> = members.iter().map(|&(_, r)| r).collect();
    let my_local = world_members
        .iter()
        .position(|&r| r == world_rank)
        .expect("member contains itself");
    Some((my_local, world_members))
}

/// Property: for arbitrary color/key assignments, `comm_split` produces
/// exactly the partition and ordering of the reference model, and a typed
/// allreduce over each part sums exactly its members.
#[test]
fn split_partitions_match_model_for_random_colors_and_keys() {
    let ranks = 6;
    let mut rng = Rng::new(0x5EED);
    for case in 0..8 {
        // Colors in [-1, 2] (−1 = undefined), keys in [0, 3] so ties exercise
        // the parent-rank tiebreak.
        let assignments: Vec<(i32, i32)> = (0..ranks)
            .map(|_| (rng.range_i32(-1, 3), rng.range_i32(0, 4)))
            .collect();
        let expected: Vec<Option<(usize, Vec<usize>)>> =
            (0..ranks).map(|r| split_model(&assignments, r)).collect();
        let assignments_for_run = assignments.clone();
        let expected_for_run = expected.clone();
        Universe::run(UniverseConfig::cxl_small(ranks), move |comm: &mut Comm| {
            let me = comm.rank();
            let (color, key) = assignments_for_run[me];
            let sub = comm.comm_split(color, key)?;
            match (&sub, &expected_for_run[me]) {
                (None, None) => {}
                (Some(sub), Some((local, members))) => {
                    assert_eq!(sub.rank(), *local, "local rank mismatch");
                    assert_eq!(sub.size(), members.len());
                    assert_eq!(sub.group().world_ranks(), &members[..]);
                    assert_eq!(sub.world_rank(), me);
                }
                (got, want) => panic!(
                    "rank {me}: split presence mismatch (got {:?}, want {:?})",
                    got.is_some(),
                    want.is_some()
                ),
            }
            // Every sub-communicator independently allreduces its members'
            // world ranks; the result must equal the model's member sum.
            if let (Some(mut sub), Some((_, members))) = (sub, expected_for_run[me].clone()) {
                let mut sum = [me as u64];
                sub.allreduce(&mut sum, ReduceOp::Sum)?;
                let expected_sum: u64 = members.iter().map(|&r| r as u64).sum();
                assert_eq!(sum[0], expected_sum, "case {case}: wrong members reduced");
            }
            comm.barrier()?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("case {case} ({assignments:?}): {e}"));
    }
}

/// The acceptance scenario, on both transports: split the world in halves,
/// then *concurrently* run a subset barrier plus a typed `allreduce<f64>` on
/// each half while identical (source, tag) user traffic flows on the parent —
/// nothing may cross-match.
#[test]
fn split_halves_run_isolated_collectives_on_both_transports() {
    for config in [
        UniverseConfig::cxl_small(8),
        UniverseConfig::tcp(8, TcpNic::MellanoxCx6Dx),
        UniverseConfig::tcp(8, TcpNic::StandardEthernet),
    ] {
        let label = config.transport.label();
        Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank();
            let n = comm.size();
            let half_id = (me < n / 2) as i32;
            let mut half = comm
                .comm_split(1 - half_id, me as i32)?
                .expect("every rank gets a half");
            assert_eq!(half.size(), n / 2);

            // Parent-communicator traffic with the same tags the collectives
            // use internally on the halves cannot interfere: send it first,
            // receive it only after the halves' collectives complete.
            let partner = (me + n / 2) % n;
            comm.send(partner, 7, &[me as u8])?;

            // Subset barrier on each half (dissemination over p2p).
            half.barrier()?;

            // Typed allreduce per half: sum of world ranks of that half.
            let mut acc = [comm.rank() as f64];
            half.allreduce(&mut acc, ReduceOp::Sum)?;
            let base = if half_id == 1 { 0 } else { n / 2 };
            let expected: f64 = (base..base + n / 2).map(|r| r as f64).sum();
            assert_eq!(acc[0], expected, "{label}: allreduce crossed halves");

            // A second round interleaving both communicators: a reduce on the
            // half while the parent's pending message is still in flight.
            let root_report = half.reduce(0, &[1.0f64], ReduceOp::Sum)?;
            if half.rank() == 0 {
                assert_eq!(root_report.unwrap(), vec![(n / 2) as f64]);
            }

            // Now drain the parent message — it must still be intact.
            let (status, data) = comm.recv_owned(Some(partner), Some(7))?;
            assert_eq!(status.source, partner);
            assert_eq!(data, vec![partner as u8]);

            comm.barrier()?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Tag/context isolation under wildcard receives: a wildcard receive on a
/// sub-communicator must never observe same-tag traffic on the parent or a
/// sibling, on either transport.
#[test]
fn wildcard_receives_respect_context_boundaries() {
    for config in [
        UniverseConfig::cxl_small(4),
        UniverseConfig::tcp(4, TcpNic::MellanoxCx6Dx),
    ] {
        let label = config.transport.label();
        Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank();
            // Pairs {0,1} and {2,3}.
            let mut pair = comm.comm_split((me / 2) as i32, me as i32)?.unwrap();
            let buddy = 1 - pair.rank();
            // Parent traffic with the same tag, sent before the pair traffic.
            let world_buddy = if me.is_multiple_of(2) { me + 1 } else { me - 1 };
            comm.send(world_buddy, 9, b"parent")?;
            pair.send(buddy, 9, b"pair")?;
            // Wildcard receive on the pair communicator: must get "pair".
            let (status, data) = pair.recv_owned(None, None)?;
            assert_eq!(&data, b"pair", "{label}: context leak into wildcard");
            assert_eq!(status.source, buddy);
            assert_eq!(status.tag, 9);
            // And the parent still delivers its message.
            let (_, data) = comm.recv_owned(Some(world_buddy), Some(9))?;
            assert_eq!(&data, b"parent");
            comm.barrier()?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Nested splits: splitting a sub-communicator again translates ranks through
/// two levels of groups and still isolates traffic.
#[test]
fn nested_splits_translate_ranks_through_levels() {
    Universe::run(UniverseConfig::cxl_small(8), |comm: &mut Comm| {
        let me = comm.rank();
        // Level 1: halves. Level 2: pairs within each half.
        let mut half = comm.comm_split((me / 4) as i32, me as i32)?.unwrap();
        let hr = half.rank();
        let mut pair = half.comm_split((hr / 2) as i32, hr as i32)?.unwrap();
        assert_eq!(pair.size(), 2);
        assert_eq!(pair.world_rank(), me);
        // Exchange world ranks within the pair.
        let buddy = 1 - pair.rank();
        let (_, data) = pair.sendrecv(buddy, 1, &[me as u8], buddy, 1)?;
        let expected_buddy_world = if me.is_multiple_of(2) { me + 1 } else { me - 1 };
        assert_eq!(data, vec![expected_buddy_world as u8]);
        // An allreduce on the half still sees exactly 4 members.
        let mut count = [1u32];
        half.allreduce(&mut count, ReduceOp::Sum)?;
        assert_eq!(count[0], 4);
        comm.barrier()?;
        Ok(())
    })
    .unwrap();
}

/// Back-to-back gathers must not interleave: a fast rank's second
/// contribution (non-root gather is a single eager send) must never be
/// consumed by the root's *first* gather, even while another rank is slow.
#[test]
fn back_to_back_gathers_do_not_interleave() {
    Universe::run(UniverseConfig::cxl_small(3), |comm: &mut Comm| {
        let me = comm.rank();
        if me == 2 {
            // Wall-clock delay so rank 1's two sends land first.
            std::thread::sleep(std::time::Duration::from_millis(30));
        }
        let mut first = vec![0u32; if me == 0 { 3 } else { 0 }];
        comm.gather_into(
            0,
            &[me as u32 + 10],
            if me == 0 { Some(&mut first[..]) } else { None },
        )?;
        let mut second = vec![0u32; if me == 0 { 3 } else { 0 }];
        comm.gather_into(
            0,
            &[me as u32 + 20],
            if me == 0 { Some(&mut second[..]) } else { None },
        )?;
        if me == 0 {
            assert_eq!(first, vec![10, 11, 12]);
            assert_eq!(second, vec![20, 21, 22]);
        }
        comm.barrier()?;
        Ok(())
    })
    .unwrap();
}

/// `comm_dup` gives a library an isolated tag space: interleaved identical
/// traffic on original and duplicate never cross-matches, and per-communicator
/// collective counters show up in the rank report.
#[test]
fn dup_isolation_and_per_comm_stats() {
    let results = Universe::run(UniverseConfig::cxl_small(4), |comm: &mut Comm| {
        let mut lib = comm.comm_dup()?;
        // "Library" traffic on the dup, "user" traffic on the world, same tags.
        let me = comm.rank();
        let next = (me + 1) % comm.size();
        let prev = (me + comm.size() - 1) % comm.size();
        comm.send(next, 3, b"user")?;
        lib.send(next, 3, b"lib")?;
        let (_, lib_msg) = lib.recv_owned(Some(prev), Some(3))?;
        let (_, user_msg) = comm.recv_owned(Some(prev), Some(3))?;
        assert_eq!(&lib_msg, b"lib");
        assert_eq!(&user_msg, b"user");
        // Collectives on both communicators for the stats report.
        let mut x = [1.0f64];
        lib.allreduce(&mut x, ReduceOp::Sum)?;
        comm.barrier()?;
        Ok(())
    })
    .unwrap();
    for (_, report) in &results {
        // World (ctx 0) and the duplicate: both appear, ordered by ctx.
        assert!(report.comm_colls.len() >= 2, "{:?}", report.comm_colls);
        assert_eq!(report.comm_colls[0].ctx, 0);
        // World: init barrier + explicit barrier + the dup-creation allreduce
        // (context agreement runs on the parent).
        assert_eq!(report.comm_colls[0].barriers, 2);
        assert_eq!(report.comm_colls[0].allreduces, 1);
        // Dup: exactly the one user allreduce.
        let dup = &report.comm_colls[1];
        assert_eq!(dup.comm_size, 4);
        assert_eq!(dup.allreduces, 1);
        assert_eq!(dup.payload_bytes, 8);
        // Aggregate counters in TransportStats cover both.
        assert!(report.stats.collectives >= 4);
    }
}

#[test]
fn split_type_host_yields_same_host_communicators() {
    // split_type(Host) must partition the world exactly by host, ordered by
    // parent rank, on blocked and permuted (round-robin) placements alike.
    use cmpi::mpi::{HostPlacement, SplitType};
    for placement in [HostPlacement::Blocked, HostPlacement::RoundRobin] {
        for (label, base) in [
            ("CXL-SHM", UniverseConfig::cxl_small(6)),
            ("TCP", UniverseConfig::tcp(6, TcpNic::MellanoxCx6Dx)),
        ] {
            let config = base.with_hosts(3).with_placement(placement.clone());
            let expected_topology = config.topology().unwrap();
            Universe::run(config, move |comm: &mut Comm| {
                let me = comm.rank();
                let my_host = expected_topology.host_of(me);
                let mut local = comm
                    .split_type(SplitType::Host)?
                    .expect("every rank lives on a host");
                // Same membership as the topology's host roster, same order.
                let expected = expected_topology.ranks_on(my_host);
                assert_eq!(local.group().world_ranks(), &expected[..]);
                assert_eq!(
                    local.rank(),
                    expected.iter().position(|&r| r == me).unwrap()
                );
                assert_ne!(local.context_id(), comm.context_id());
                // The sub-communicator is fully functional: a collective on it
                // only involves same-host peers.
                let mut v = [me as u64];
                local.allreduce(&mut v, ReduceOp::Sum)?;
                assert_eq!(v[0], expected.iter().map(|&r| r as u64).sum::<u64>());
                comm.barrier()?;
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label} {placement:?}: {e}"));
        }
    }
}

#[test]
fn dropped_communicators_retire_their_shards() {
    // A thousand communicators, each used for one 8 B broadcast and dropped:
    // duplicates of world, and `comm_split` halves (whose two windows, one
    // per color, are named by each color's own lead under one shared context
    // id; at n = 2 a half is one rank and has no window). The rank keeps a
    // shard, and plans, for the live communicators only, and folds what the
    // dropped ones counted into one retired row — the report adds up to the
    // same totals. Every one of them gets a window, and the last member to
    // drop it frees it: no creation fails, and what the windows drew from
    // the pool's headroom is back once every member has let go (a world
    // barrier, after the drops).
    const CYCLES: usize = 1000;
    for (n, split) in [(2usize, false), (8, false), (4, true), (8, true)] {
        let config = UniverseConfig::cxl(n).with_hosts(2);
        let results = Universe::run(config, move |world: &mut Comm| {
            let base = world.plan_cache_stats().entries;
            world.barrier()?;
            let drawn = world.headroom_drawn()?;
            let failures = world.data_plane_stats().window_failures;
            let color = (2 * world.rank() / n) as i32;
            for cycle in 0..CYCLES {
                let mut sub = match split {
                    false => world.comm_dup()?,
                    true => world.comm_split(color, 0)?.expect("every rank has a color"),
                };
                let mut buf = [cycle as u8; 8];
                sub.bcast_into(0, &mut buf)?;
                assert_eq!(buf, [cycle as u8; 8]);
                assert_eq!(sub.last_coll_algorithm(), "bcast/shm", "cycle {cycle}");
                assert_eq!(world.plan_cache_stats().entries, base + 1);
            }
            world.barrier()?;
            assert_eq!(world.data_plane_stats().window_failures, failures);
            assert_eq!(world.headroom_drawn()?, drawn);
            Ok(world.plan_cache_stats().entries - base)
        })
        .unwrap();
        for (rank, (resident, report)) in results.iter().enumerate() {
            let what = format!("n={n}, split {split}, rank {rank}");
            assert_eq!(*resident, 0, "{what}: plans of dropped communicators");
            let rows: Vec<_> = report.comm_colls.iter().map(|c| c.ctx).collect();
            assert_eq!(rows, [WORLD_CTX, RETIRED_CTX], "{what}");
            let retired = &report.comm_colls[1];
            let size = if split { n / 2 } else { n };
            assert_eq!(
                (retired.comm_size, retired.bcasts, retired.payload_bytes),
                (size, CYCLES as u64, 8 * CYCLES as u64),
                "{what}"
            );
            // Every communicator's context agreement ran on world: a
            // duplicate's is an allreduce, a split's an allgather.
            let world = &report.comm_colls[0];
            let agreements = [world.allreduces, world.allgathers][split as usize];
            assert_eq!(agreements, CYCLES as u64, "{what}");
            assert_eq!(report.data_plane.window_failures, 0, "{what}");
        }
    }
}
