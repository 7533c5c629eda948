//! Size- and shape-adaptive collective algorithms, end-to-end.
//!
//! Non-power-of-two rank counts (3, 5, 6, 7) are cross-checked against naive
//! references on both transports, and payloads on each side of each flat
//! crossover constant reach every algorithm branch (binomial vs
//! scatter-allgather bcast, Bruck vs ring allgather, recursive-doubling vs
//! Rabenseifner allreduce, naive vs halving/pairwise reduce-scatter),
//! asserting both the numeric results and the algorithm labels surfaced in
//! `RankReport::coll_algos`.

use cmpi::mpi::coll::{
    ALLGATHER_BRUCK_MAX_BYTES, ALLREDUCE_RABENSEIFNER_MIN_BYTES, BCAST_SCATTER_ALLGATHER_MIN_BYTES,
    REDUCE_SCATTER_DIRECT_MIN_BYTES,
};
use cmpi::mpi::{Comm, ReduceOp, Universe, UniverseConfig};

mod common;
use common::{configs, force_ring, past};

#[test]
fn non_power_of_two_allreduce_matches_naive_reference() {
    // Small (recursive doubling + fold) and large (Rabenseifner + fold)
    // paths. Non-power-of-two counts must use fold elimination, never the
    // old reduce+bcast cliff.
    let legs = [
        (33, "allreduce/recursive-doubling+fold"),
        (
            past::<i64>(ALLREDUCE_RABENSEIFNER_MIN_BYTES),
            "allreduce/rabenseifner+fold",
        ),
    ];
    for n in [3usize, 5, 6, 7] {
        for (label, config) in configs(n) {
            for (count, expect) in legs {
                let config = config.clone().with_coll_tuning(force_ring());
                let results = Universe::run(config, move |comm: &mut Comm| {
                    let me = comm.rank() as i64;
                    let n = comm.size() as i64;
                    // Sum: reference is n*(n-1)/2 + i for element i offsets.
                    let mut values: Vec<i64> = (0..count as i64).map(|i| me * 1000 + i).collect();
                    comm.allreduce(&mut values, ReduceOp::Sum)?;
                    let rank_sum: i64 = (0..n).sum::<i64>() * 1000;
                    for (i, v) in values.iter().enumerate() {
                        assert_eq!(*v, rank_sum + n * i as i64, "sum mismatch at {i}");
                    }
                    // Max cross-check.
                    let mut m = vec![me; count];
                    comm.allreduce(&mut m, ReduceOp::Max)?;
                    assert!(m.iter().all(|&v| v == n - 1));
                    Ok(comm.last_coll_algorithm().to_string())
                })
                .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
                for (algo, _) in &results {
                    assert_eq!(algo, expect, "{label} n={n}");
                }
            }
        }
    }
}

#[test]
fn non_power_of_two_reduce_scatter_matches_naive_reference() {
    for n in [3usize, 5, 6, 7] {
        for (label, config) in configs(n) {
            // Blocks of a total below and just past the direct crossover.
            for (block, expect) in [
                (5, "reduce-scatter/naive"),
                (
                    past::<i64>(REDUCE_SCATTER_DIRECT_MIN_BYTES / n),
                    "reduce-scatter/pairwise",
                ),
            ] {
                let config = config.clone().with_coll_tuning(force_ring());
                Universe::run(config, move |comm: &mut Comm| {
                    let me = comm.rank() as i64;
                    let n = comm.size() as i64;
                    let values: Vec<i64> = (0..block * n as usize)
                        .map(|i| me * 100 + i as i64)
                        .collect();
                    let mine = comm.reduce_scatter(&values, ReduceOp::Sum)?;
                    assert_eq!(mine.len(), block);
                    let rank_sum: i64 = (0..n).sum::<i64>() * 100;
                    for (j, v) in mine.iter().enumerate() {
                        let idx = comm.rank() * block + j;
                        assert_eq!(*v, rank_sum + n * idx as i64, "block elem {j}");
                    }
                    assert_eq!(comm.last_coll_algorithm(), expect);
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
            }
        }
    }
}

#[test]
fn power_of_two_reduce_scatter_uses_recursive_halving() {
    // A total just past the direct crossover.
    let block = past::<u64>(REDUCE_SCATTER_DIRECT_MIN_BYTES / 4);
    for (label, config) in configs(4) {
        let config = config.with_coll_tuning(force_ring());
        Universe::run(config, move |comm: &mut Comm| {
            let me = comm.rank() as u64;
            let n = comm.size() as u64;
            let values: Vec<u64> = (0..block as u64 * n).map(|i| me + i).collect();
            let mine = comm.reduce_scatter(&values, ReduceOp::Sum)?;
            let rank_sum: u64 = (0..n).sum();
            for (j, v) in mine.iter().enumerate() {
                let idx = comm.rank() * block + j;
                assert_eq!(*v, rank_sum + n * idx as u64);
            }
            assert_eq!(
                comm.last_coll_algorithm(),
                "reduce-scatter/recursive-halving"
            );
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn bcast_scatter_allgather_matches_binomial() {
    // An uneven payload (not divisible by n) just past the crossover, and
    // every root, on 5 ranks.
    let total = past::<u8>(BCAST_SCATTER_ALLGATHER_MIN_BYTES);
    assert_ne!(total % 5, 0);
    for (label, config) in configs(5) {
        let config = config.with_coll_tuning(force_ring());
        Universe::run(config, move |comm: &mut Comm| {
            let n = comm.size();
            for root in 0..n {
                let mut data = vec![0u8; total];
                if comm.rank() == root {
                    for (i, b) in data.iter_mut().enumerate() {
                        *b = ((i * 37 + root) % 251) as u8;
                    }
                }
                comm.bcast_into(root, &mut data)?;
                assert_eq!(comm.last_coll_algorithm(), "bcast/scatter-allgather");
                for (i, b) in data.iter().enumerate() {
                    assert_eq!(*b, ((i * 37 + root) % 251) as u8, "root {root} byte {i}");
                }
            }
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn bruck_and_ring_allgather_agree() {
    for n in [3usize, 4, 6, 7] {
        for (label, config) in configs(n) {
            for (block, expect) in [
                (3, "allgather/bruck"),
                (past::<u32>(ALLGATHER_BRUCK_MAX_BYTES), "allgather/ring"),
            ] {
                let config = config.clone().with_coll_tuning(force_ring());
                Universe::run(config, move |comm: &mut Comm| {
                    let me = comm.rank();
                    let n = comm.size();
                    let send: Vec<u32> = (0..block).map(|i| (me * 10 + i) as u32).collect();
                    let mut recv = vec![0u32; block * n];
                    comm.allgather_into(&send, &mut recv)?;
                    assert_eq!(comm.last_coll_algorithm(), expect);
                    for r in 0..n {
                        for i in 0..block {
                            assert_eq!(recv[r * block + i], (r * 10 + i) as u32);
                        }
                    }
                    Ok(())
                })
                .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
            }
        }
    }
}

#[test]
fn adaptive_collectives_work_on_sub_communicators() {
    // Sub-communicators have non-identity local→world rank maps (the odd half
    // of a parity split maps local 0,1,2 → world 1,3,5): every algorithm must
    // translate ranks through the group. Exercises the large branches with
    // payloads just past their crossovers on 6 world ranks → two 3-rank
    // halves.
    for (label, config) in configs(6) {
        let config = config.with_coll_tuning(force_ring());
        Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank();
            let mut half = comm.comm_split((me % 2) as i32, me as i32)?.unwrap();
            let hn = half.size();
            let hme = half.rank();
            assert_eq!(hn, 3);
            // bcast (scatter-allgather) from each root of the half.
            for root in 0..hn {
                let mut data = vec![0u8; past::<u8>(BCAST_SCATTER_ALLGATHER_MIN_BYTES)];
                if hme == root {
                    for (i, b) in data.iter_mut().enumerate() {
                        *b = ((i + root * 7) % 251) as u8;
                    }
                }
                half.bcast_into(root, &mut data)?;
                assert_eq!(half.last_coll_algorithm(), "bcast/scatter-allgather");
                for (i, b) in data.iter().enumerate() {
                    assert_eq!(*b, ((i + root * 7) % 251) as u8);
                }
            }
            // allreduce (rabenseifner+fold on n=3) and reduce-scatter
            // (pairwise) inside the half.
            let count = past::<i64>(ALLREDUCE_RABENSEIFNER_MIN_BYTES) as i64;
            let mut v: Vec<i64> = (0..count).map(|i| (hme as i64 + 1) * 10 + i).collect();
            half.allreduce(&mut v, ReduceOp::Sum)?;
            assert_eq!(half.last_coll_algorithm(), "allreduce/rabenseifner+fold");
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, 60 + 3 * i as i64);
            }
            let block = past::<i64>(REDUCE_SCATTER_DIRECT_MIN_BYTES / hn);
            let rs: Vec<i64> = vec![hme as i64; block * hn];
            let mine = half.reduce_scatter(&rs, ReduceOp::Sum)?;
            assert_eq!(half.last_coll_algorithm(), "reduce-scatter/pairwise");
            // Each element is 0 + 1 + 2 summed across the half.
            assert_eq!(mine, vec![3; block]);
            // ring allgather inside the half.
            let block = past::<u16>(ALLGATHER_BRUCK_MAX_BYTES);
            let mut all = vec![0u16; block * hn];
            half.allgather_into(&vec![hme as u16; block], &mut all)?;
            assert_eq!(half.last_coll_algorithm(), "allgather/ring");
            for (r, got) in all.chunks(block).enumerate() {
                assert!(got.iter().all(|&x| x == r as u16));
            }
            comm.barrier()?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

#[test]
fn large_message_sweep_forces_every_branch_with_default_thresholds() {
    // Default thresholds + genuinely large payloads on the CXL transport:
    // every "large" algorithm label must show up in the rank reports, and a
    // small collective beforehand must pick the small-message algorithms.
    let config = UniverseConfig::cxl_small(4);
    let results = Universe::run(config, |comm: &mut Comm| {
        let me = comm.rank();
        let n = comm.size();
        // Small first (defaults: everything below the thresholds).
        let mut tiny = [me as u64; 4];
        comm.allreduce(&mut tiny, ReduceOp::Sum)?;
        assert_eq!(comm.last_coll_algorithm(), "allreduce/recursive-doubling");
        let mut gathered = vec![0u8; n * 16];
        comm.allgather_into(&[me as u8; 16], &mut gathered)?;
        assert_eq!(comm.last_coll_algorithm(), "allgather/bruck");

        // Large: 256 KiB-ish payloads cross every default threshold.
        let elems = 48 * 1024; // 384 KiB of f64
        let mut big: Vec<f64> = vec![1.0; elems];
        comm.allreduce(&mut big, ReduceOp::Sum)?;
        assert_eq!(comm.last_coll_algorithm(), "allreduce/rabenseifner");
        assert!(big.iter().all(|&v| v == n as f64));

        let rs_in: Vec<f64> = vec![2.0; elems];
        let mine = comm.reduce_scatter(&rs_in, ReduceOp::Sum)?;
        assert_eq!(
            comm.last_coll_algorithm(),
            "reduce-scatter/recursive-halving"
        );
        assert!(mine.iter().all(|&v| v == 2.0 * n as f64));

        let mut bc = vec![me as u8; 256 * 1024];
        if me == 0 {
            bc.fill(7);
        }
        comm.bcast_into(0, &mut bc)?;
        assert_eq!(comm.last_coll_algorithm(), "bcast/scatter-allgather");
        assert!(bc.iter().all(|&b| b == 7));

        let send = vec![me as u8; 64 * 1024];
        let mut all = vec![0u8; n * 64 * 1024];
        comm.allgather_into(&send, &mut all)?;
        assert_eq!(comm.last_coll_algorithm(), "allgather/ring");
        Ok(())
    })
    .unwrap();
    // The report aggregates every label this rank used.
    for (_, report) in &results {
        let labels: Vec<&str> = report.coll_algos.iter().map(|(l, _)| l.as_str()).collect();
        for expected in [
            "allreduce/recursive-doubling",
            "allreduce/rabenseifner",
            "allgather/bruck",
            "allgather/ring",
            "bcast/scatter-allgather",
            "reduce-scatter/recursive-halving",
            "barrier/sequence",
        ] {
            assert!(
                labels.contains(&expected),
                "missing {expected} in {labels:?}"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Topology-aware hierarchical compositions
// ----------------------------------------------------------------------

use cmpi::fabric::cost::TcpNic;
use cmpi::mpi::HostPlacement;
use common::force_hier;

/// Every hierarchical composition, forced on n = 3, 5, 6, 7 ranks over 1, 2
/// and 3 hosts (blocked *and* permuted round-robin placements), on both
/// transports, cross-checked byte-for-byte against arithmetic references —
/// i.e. exactly what the flat algorithms produce. On a single host the
/// hierarchy degenerates and the flat labels must reappear. Small payloads,
/// then payloads just past the flat crossovers, so that the phases run
/// Rabenseifner and van de Geijn.
#[test]
fn forced_hierarchy_matches_flat_reference_across_topologies() {
    for n in [3usize, 5, 6, 7] {
        for hosts in [1usize, 2, 3] {
            if hosts > n {
                continue;
            }
            for placement in [HostPlacement::Blocked, HostPlacement::RoundRobin] {
                // On one host the two placements are one topology.
                if hosts == 1 && placement == HostPlacement::RoundRobin {
                    continue;
                }
                for (label, base) in [
                    ("CXL-SHM", UniverseConfig::cxl_small(n)),
                    ("TCP", UniverseConfig::tcp(n, TcpNic::MellanoxCx6Dx)),
                ] {
                    for large in [false, true] {
                        let config = base
                            .clone()
                            .with_hosts(hosts)
                            .with_placement(placement.clone())
                            .with_coll_tuning(force_hier());
                        let hier_expected = hosts >= 2;
                        Universe::run(config, move |comm: &mut Comm| {
                            let me = comm.rank() as i64;
                            let n = comm.size() as i64;
                            let check_label = |algo: &str, op: &str| {
                                assert_eq!(
                                    algo.contains("hier"),
                                    hier_expected,
                                    "{op}: got {algo} with {hosts} hosts"
                                );
                            };

                            // allreduce (multi-chunk on the 1 KiB CXL cells).
                            let count = if large {
                                past::<i64>(ALLREDUCE_RABENSEIFNER_MIN_BYTES)
                            } else {
                                200
                            };
                            let mut v: Vec<i64> =
                                (0..count as i64).map(|i| me * 1000 + i).collect();
                            comm.allreduce(&mut v, ReduceOp::Sum)?;
                            let rank_sum: i64 = (0..n).sum::<i64>() * 1000;
                            for (i, x) in v.iter().enumerate() {
                                assert_eq!(*x, rank_sum + n * i as i64, "allreduce elem {i}");
                            }
                            let algo = comm.last_coll_algorithm();
                            check_label(algo, "allreduce");
                            assert_eq!(algo.contains("rabenseifner"), large, "{algo}");

                            // bcast from every root, so every host slot leads
                            // the leaders' phase and a non-leader root's host
                            // fans out without its leader. Past the crossover,
                            // van de Geijn runs where more than two take part
                            // in a phase (or, on one host, in the flat
                            // algorithm).
                            let total = if large {
                                past::<u8>(BCAST_SCATTER_ALLGATHER_MIN_BYTES)
                            } else {
                                301
                            };
                            // Root r sends `pattern[r..r + total]`.
                            let pattern: Vec<u8> = (0..total + n as usize)
                                .map(|i| (i * 37 % 251) as u8)
                                .collect();
                            for root in 0..n as usize {
                                let expect = &pattern[root..root + total];
                                let mut data = if comm.rank() == root {
                                    expect.to_vec()
                                } else {
                                    vec![0u8; total]
                                };
                                comm.bcast_into(root, &mut data)?;
                                assert!(data == expect, "root {root}");
                                let algo = comm.last_coll_algorithm();
                                check_label(algo, "bcast");
                                assert_eq!(
                                    algo.ends_with("scatter-allgather"),
                                    large && hosts != 2,
                                    "{algo}"
                                );
                            }

                            // rooted reduce to every root.
                            for root in 0..n as usize {
                                let vals: Vec<i64> = (0..23).map(|i| me * 7 + i).collect();
                                let out = comm.reduce(root, &vals, ReduceOp::Sum)?;
                                if comm.rank() == root {
                                    let expect: Vec<i64> = (0..23)
                                        .map(|i| (0..n).map(|r| r * 7 + i).sum::<i64>())
                                        .collect();
                                    assert_eq!(out.unwrap(), expect, "reduce root {root}");
                                } else {
                                    assert!(out.is_none());
                                }
                                check_label(comm.last_coll_algorithm(), "reduce");
                            }

                            // allgather. Past the crossover, blocks run the
                            // ring, and the total is past the bcast's, so the
                            // hierarchical fan-out runs van de Geijn too.
                            let block = if large {
                                past::<u32>(ALLGATHER_BRUCK_MAX_BYTES).max(past::<u32>(
                                    BCAST_SCATTER_ALLGATHER_MIN_BYTES / n as usize,
                                ))
                            } else {
                                5
                            };
                            let send: Vec<u32> =
                                (0..block as u32).map(|i| (me * 100) as u32 + i).collect();
                            let mut recv = vec![0u32; block * n as usize];
                            comm.allgather_into(&send, &mut recv)?;
                            for r in 0..n as usize {
                                for i in 0..block {
                                    assert_eq!(recv[r * block + i], (r * 100 + i) as u32);
                                }
                            }
                            let algo = comm.last_coll_algorithm();
                            check_label(algo, "allgather");
                            assert_eq!(algo.ends_with("ring"), large || hier_expected, "{algo}");

                            // barrier: the world blocking barrier keeps the
                            // sequence fast path; ibarrier compiles the
                            // dissemination schedule and must compose.
                            let mut req = comm.ibarrier()?;
                            comm.wait(&mut req)?;
                            check_label(comm.last_coll_algorithm(), "ibarrier");

                            // ireduce == reduce.
                            let vals: Vec<i64> = (0..9).map(|i| me * 13 + i).collect();
                            let blocking =
                                comm.reduce(1.min(n as usize - 1), &vals, ReduceOp::Max)?;
                            let mut req =
                                comm.ireduce(1.min(n as usize - 1), &vals, ReduceOp::Max)?;
                            comm.wait(&mut req)?;
                            let nb = req.take_values::<i64>()?;
                            match blocking {
                                Some(b) => assert_eq!(nb, b, "ireduce"),
                                None => assert!(nb.is_empty(), "ireduce non-root"),
                            }

                            comm.barrier()?;
                            Ok(())
                        })
                        .unwrap_or_else(|e| {
                            panic!("{label} n={n} hosts={hosts} {placement:?}: {e}")
                        });
                    }
                }
            }
        }
    }
}

/// Hierarchical collectives on a sub-communicator spanning a strict subset of
/// the universe's hosts: 6 ranks over 3 hosts, split into {0,1,2} (hosts 0–1)
/// and {3,4,5} (hosts 1–2) — both halves span exactly two of the three hosts
/// and must compose hierarchically with correct results.
#[test]
fn forced_hierarchy_on_subset_of_hosts_subcommunicator() {
    for (label, base) in [
        ("CXL-SHM", UniverseConfig::cxl_small(6)),
        ("TCP", UniverseConfig::tcp(6, TcpNic::MellanoxCx6Dx)),
    ] {
        // blocked(6, 3) = [0, 0, 1, 1, 2, 2]: the halves {0,1,2} and {3,4,5}
        // each span two hosts, sharing host 1 between them.
        let config = base.with_hosts(3).with_coll_tuning(force_hier());
        Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank();
            let mut half = comm.comm_split((me / 3) as i32, me as i32)?.unwrap();
            assert_eq!(half.size(), 3);
            let hme = half.rank() as i64;

            let mut v: Vec<i64> = (0..40).map(|i| hme * 10 + i).collect();
            half.allreduce(&mut v, ReduceOp::Sum)?;
            for (i, x) in v.iter().enumerate() {
                assert_eq!(*x, 30 + 3 * i as i64, "subset allreduce elem {i}");
            }
            assert!(
                half.last_coll_algorithm().contains("hier"),
                "subset spans 2 hosts but ran {}",
                half.last_coll_algorithm()
            );

            let mut data = vec![0u8; 97];
            if hme == 2 {
                data.iter_mut()
                    .enumerate()
                    .for_each(|(i, b)| *b = (i % 251) as u8);
            }
            half.bcast_into(2, &mut data)?;
            assert!(data.iter().enumerate().all(|(i, b)| *b == (i % 251) as u8));
            assert!(half.last_coll_algorithm().contains("hier"));

            let mut all = vec![0u16; 3];
            half.allgather_into(&[hme as u16], &mut all)?;
            assert_eq!(all, vec![0, 1, 2]);

            // The subset barrier (non-world) takes the hierarchical path too.
            half.barrier()?;
            assert_eq!(half.last_coll_algorithm(), "barrier/hier");

            comm.barrier()?;
            Ok(())
        })
        .unwrap_or_else(|e| panic!("{label}: {e}"));
    }
}

/// Auto selection: with default tuning a large (≥ the 512 KiB cutoff)
/// collective on a multi-host layout composes hierarchically, a small one
/// stays flat, and `HierarchyMode::Off` restores the flat algorithms at any
/// size. Also pins the acceptance surface: `RankReport::coll_algos` shows the
/// composite labels.
#[test]
fn auto_selection_gates_on_payload_and_mode() {
    use cmpi::mpi::{CollTuning, HierarchyMode};
    // This test isolates the *hierarchy* gates, so no communicator has a
    // window — `cxl(8)`'s full-size pool would otherwise hand the small flat
    // collectives to the shared window (covered by the data-plane suites
    // instead).
    let ring = || CollTuning {
        shm_arena_bytes: 0,
        ..CollTuning::default()
    };
    // 8 ranks × 2 hosts, full-size cells so the 768 KiB payload stays fast.
    let run = |tuning: CollTuning| {
        let config = UniverseConfig::cxl(8).with_coll_tuning(tuning);
        Universe::run(config, |comm: &mut Comm| {
            let me = comm.rank() as u64;
            // Small: stays flat under Auto.
            let mut small = vec![me; 64];
            comm.allreduce(&mut small, ReduceOp::Sum)?;
            let small_algo = comm.last_coll_algorithm();
            // Large: 96k u64 = 768 KiB ≥ the 512 KiB default cutoff.
            let mut large = vec![1u64; 96 * 1024];
            comm.allreduce(&mut large, ReduceOp::Sum)?;
            assert!(large.iter().all(|&v| v == comm.size() as u64));
            let large_algo = comm.last_coll_algorithm();
            let mut bc = vec![me as u8; 768 * 1024];
            if comm.rank() == 0 {
                bc.fill(9);
            }
            comm.bcast_into(0, &mut bc)?;
            assert!(bc.iter().all(|&b| b == 9));
            let bcast_algo = comm.last_coll_algorithm();
            Ok((small_algo, large_algo, bcast_algo))
        })
        .unwrap()
    };

    let auto = run(ring());
    for (small, large, bcast) in auto.iter().map(|(r, _)| *r) {
        assert_eq!(small, "allreduce/recursive-doubling");
        assert_eq!(large, "allreduce/hier+rabenseifner");
        // Two hosts → two leaders: the leader phase is a single binomial hop
        // (van de Geijn needs > 2 participants to pay off).
        assert_eq!(bcast, "bcast/hier+binomial");
    }

    let off = run(CollTuning {
        hierarchy: HierarchyMode::Off,
        ..ring()
    });
    for (small, large, bcast) in off.iter().map(|(r, _)| *r) {
        assert_eq!(small, "allreduce/recursive-doubling");
        assert_eq!(large, "allreduce/rabenseifner");
        assert_eq!(bcast, "bcast/scatter-allgather");
    }

    // The composite labels surface in RankReport::coll_algos.
    let config = UniverseConfig::cxl(8).with_coll_tuning(ring());
    let results = Universe::run(config, |comm: &mut Comm| {
        let mut big = vec![1.0f64; 128 * 1024]; // 1 MiB
        comm.allreduce(&mut big, ReduceOp::Sum)?;
        Ok(())
    })
    .unwrap();
    for (_, report) in &results {
        assert!(
            report
                .coll_algos
                .iter()
                .any(|(l, c)| l == "allreduce/hier+rabenseifner" && *c == 1),
            "composite label missing from {:?}",
            report.coll_algos
        );
    }

    // Auto is op-aware: allgather uses its own (much larger) total-size
    // cutoff, so a 512 KiB total result — which the bench sweep measures as
    // a hierarchical *loss* — stays flat, while an 8 MiB total composes.
    let config = UniverseConfig::cxl(8).with_coll_tuning(ring());
    let results = Universe::run(config, |comm: &mut Comm| {
        let n = comm.size();
        let send = vec![comm.rank() as u64; 8 * 1024]; // 64 KiB block → 512 KiB total
        let mut recv = vec![0u64; n * send.len()];
        comm.allgather_into(&send, &mut recv)?;
        let small = comm.last_coll_algorithm();
        let send = vec![comm.rank() as u64; 128 * 1024]; // 1 MiB block → 8 MiB total
        let mut recv = vec![0u64; n * send.len()];
        comm.allgather_into(&send, &mut recv)?;
        Ok((small, comm.last_coll_algorithm()))
    })
    .unwrap();
    for ((small, large), _) in &results {
        assert_eq!(*small, "allgather/ring");
        assert_eq!(*large, "allgather/hier+ring");
    }

    // Auto is placement-aware: round-robin over two hosts makes the flat
    // allreduce's top-level exchange (rank ^ 4) same-host everywhere, so the
    // flat algorithm is already topology-optimal and Auto keeps it; Force
    // still composes.
    use cmpi::mpi::HostPlacement as HP;
    let rr = |mode: HierarchyMode| {
        let config = UniverseConfig::cxl(8)
            .with_placement(HP::RoundRobin)
            .with_coll_tuning(CollTuning {
                hierarchy: mode,
                ..ring()
            });
        Universe::run(config, |comm: &mut Comm| {
            let mut big = vec![1.0f64; 128 * 1024]; // 1 MiB
            comm.allreduce(&mut big, ReduceOp::Sum)?;
            assert!(big.iter().all(|&v| v == comm.size() as f64));
            Ok(comm.last_coll_algorithm())
        })
        .unwrap()
    };
    for (algo, _) in rr(HierarchyMode::Auto) {
        assert_eq!(algo, "allreduce/rabenseifner");
    }
    for (algo, _) in rr(HierarchyMode::Force) {
        assert_eq!(algo, "allreduce/hier+rabenseifner");
    }
}

#[test]
fn scan_and_exscan_match_prefix_references_on_subcommunicators() {
    // Prefix reductions on the world communicator and on a comm_split half,
    // with Sum and Max, against directly computed references.
    for n in [3usize, 5, 6, 7] {
        for (label, config) in configs(n) {
            Universe::run(config, move |comm: &mut Comm| {
                let me = comm.rank() as u64;
                // Sum scan: rank r holds sum over 0..=r of (rank + 1).
                let mut v = vec![me + 1; 9];
                comm.scan(&mut v, ReduceOp::Sum)?;
                let expect: u64 = (1..=me + 1).sum();
                assert!(v.iter().all(|&x| x == expect), "scan sum");
                assert_eq!(comm.last_coll_algorithm(), "scan/recursive-doubling");
                // Max exscan: rank r > 0 holds max over 0..r = r - 1.
                let mut v = vec![me; 9];
                comm.exscan(&mut v, ReduceOp::Max)?;
                if me > 0 {
                    assert!(v.iter().all(|&x| x == me - 1), "exscan max");
                } else {
                    assert!(v.iter().all(|&x| x == 0), "rank 0 buffer untouched");
                }
                assert_eq!(comm.last_coll_algorithm(), "exscan/recursive-doubling");
                // Same ops on a split half: local ranks re-anchor the prefix.
                let color = (comm.rank() % 2) as i32;
                if let Some(mut half) = comm.comm_split(color, comm.rank() as i32)? {
                    let lme = half.rank() as u64;
                    let mut v = vec![lme + 1; 4];
                    half.scan(&mut v, ReduceOp::Sum)?;
                    let expect: u64 = (1..=lme + 1).sum();
                    assert!(v.iter().all(|&x| x == expect), "split scan sum");
                }
                Ok(())
            })
            .unwrap_or_else(|e| panic!("{label} n={n}: {e}"));
        }
    }
}

/// The shared-window data plane must be byte-equivalent to the ring path for
/// every collective family it implements — on awkward rank counts, for
/// blocking and nonblocking starts, with the hierarchy both off and forced.
/// The window-less runs are the references; the window runs must also take
/// the path their tuning selects (labels, per-path counters).
#[test]
fn data_plane_matches_ring_byte_for_byte() {
    use cmpi::mpi::CollTuning;
    use common::{force_hier, force_ring, force_shm, with_window_headroom, TEST_SHM_ARENA_BYTES};

    /// The path every family but the barrier takes in one run.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Path {
        Flat,
        TwoLevel,
        Window,
    }

    #[derive(Debug, PartialEq)]
    struct Outcome {
        bcast: Vec<u64>,
        reduce: Option<Vec<i64>>,
        allreduce: Vec<i64>,
        allgather: Vec<u32>,
        ibcast: Vec<u64>,
        iallreduce: Vec<i64>,
        iallgather: Vec<u32>,
    }

    for n in [3usize, 5, 6, 7] {
        // `window` says whether the communicator has one: the barrier takes
        // it whenever it does, whatever `path` the other families take.
        let run = |tuning: CollTuning, path: Path| -> Vec<Outcome> {
            let window = tuning.shm_arena_bytes > 0;
            let config =
                with_window_headroom(UniverseConfig::cxl_small(n).with_hosts(2), 64 * 1024 * 1024)
                    .with_coll_tuning(tuning);
            let results = Universe::run(config, move |comm: &mut Comm| {
                let me = comm.rank();
                let check = |comm: &Comm, family: &str| {
                    let algo = comm.last_coll_algorithm();
                    let took = if algo.contains("/shm") {
                        Path::Window
                    } else if algo.contains("/hier") {
                        Path::TwoLevel
                    } else {
                        Path::Flat
                    };
                    assert_eq!(took, path, "{family}: unexpected path {algo}");
                };
                // World's blocking barrier is the transport's sequence
                // barrier; the nonblocking one runs the barrier plan.
                let mut req = comm.ibarrier()?;
                comm.wait(&mut req)?;
                let barrier = comm.last_coll_algorithm();
                assert_eq!(barrier.ends_with("/shm"), window, "barrier took {barrier}");
                // bcast from root 1: 3000 u64 = ~23 KiB, fits a 64 KiB slot.
                let mut bc: Vec<u64> = if me == 1 {
                    (0..3000).map(|i| i * 7 + 13).collect()
                } else {
                    vec![0; 3000]
                };
                comm.bcast_into(1, &mut bc)?;
                check(comm, "bcast");
                // Rooted reduce at root 2 (33 elements exercise uneven folds).
                let vals: Vec<i64> = (0..33).map(|i| me as i64 * 1000 + i).collect();
                let red = comm.reduce(2, &vals, ReduceOp::Sum)?;
                check(comm, "reduce");
                // Allreduce, sum.
                let mut ar = vals.clone();
                comm.allreduce(&mut ar, ReduceOp::Sum)?;
                check(comm, "allreduce");
                // Allgather, 5 u32 per rank.
                let send: Vec<u32> = (0..5).map(|i| (me * 100 + i) as u32).collect();
                let mut ag = vec![0u32; 5 * comm.size()];
                comm.allgather_into(&send, &mut ag)?;
                check(comm, "allgather");
                // Nonblocking starts execute the same cached plans.
                let contrib = if me == 1 {
                    bc.clone()
                } else {
                    vec![0u64; 3000]
                };
                let mut req = comm.ibcast_into(1, &contrib)?;
                comm.wait(&mut req)?;
                check(comm, "ibcast");
                let ibc = req.take_values::<u64>()?;
                let mut req = comm.iallreduce(&vals, ReduceOp::Sum)?;
                comm.wait(&mut req)?;
                check(comm, "iallreduce");
                let iar = req.take_values::<i64>()?;
                let mut req = comm.iallgather_into(&send)?;
                comm.wait(&mut req)?;
                check(comm, "iallgather");
                let iag = req.take_values::<u32>()?;
                // The per-path counters agree: seven families and the
                // barrier, on the window or on the ring.
                let dp = comm.data_plane_stats();
                let on_window = (path == Path::Window) as u64 * 7 + window as u64;
                assert_eq!(dp.shm_colls, on_window, "{dp:?}");
                assert_eq!(dp.ring_colls, 8 - on_window, "{dp:?}");
                if path == Path::Window {
                    assert!(dp.bytes_pulled > 0 && dp.expose_ops > 0, "{dp:?}");
                }
                Ok(Outcome {
                    bcast: bc,
                    reduce: red,
                    allreduce: ar,
                    allgather: ag,
                    ibcast: ibc,
                    iallreduce: iar,
                    iallgather: iag,
                })
            })
            .unwrap_or_else(|e| panic!("n={n} {path:?} window={window}: {e}"));
            results.into_iter().map(|(o, _)| o).collect()
        };

        let ring_flat = run(force_ring(), Path::Flat);
        let ring_hier = run(force_hier(), Path::TwoLevel);
        let shm_flat = run(force_shm(), Path::Window);
        // A forced hierarchy keeps every family that moves bytes off a
        // window the communicator has: its per-host phases are exactly the
        // traffic the window replaces. The barrier still takes the window.
        let hier_window = CollTuning {
            shm_arena_bytes: TEST_SHM_ARENA_BYTES,
            ..force_hier()
        };
        let shm_hier = run(hier_window, Path::TwoLevel);
        assert_eq!(ring_flat, ring_hier, "n={n}: hier ring diverged");
        assert_eq!(ring_flat, shm_flat, "n={n}: shm diverged from ring");
        assert_eq!(ring_flat, shm_hier, "n={n}: hier-with-a-window diverged");
    }
}

/// Far past the cost walk's crossover a multi-host bcast takes the
/// host-sliced shape: remote-host members pull disjoint slices of the root's
/// exposure and re-expose them for their host-mates. The result must still be
/// byte-identical to the ring reference — on two hosts (sliced) and on one
/// host (direct: nothing to slice by) — for blocking and nonblocking starts,
/// with restarts reusing the cached plan.
#[test]
fn data_plane_scatter_bcast_matches_ring_above_cutoff() {
    use cmpi::mpi::{CollTuning, HierarchyMode};
    use common::{force_ring, with_window_headroom};

    // 20_000 u64 = 160_000 B; a 2 MiB arena gives 512 KiB slots, comfortably
    // above the payload's footprint.
    const ELEMS: u64 = 20_000;
    let shm = CollTuning {
        hierarchy: HierarchyMode::Off,
        shm_arena_bytes: 2 * 1024 * 1024,
    };

    for n in [4usize, 5] {
        for hosts in [1usize, 2] {
            let sliced = if hosts > 1 {
                "bcast/shm+hosts"
            } else {
                "bcast/shm"
            };
            let run = |tuning: CollTuning, expect_shm: bool| -> Vec<(Vec<u64>, Vec<u64>)> {
                let config = with_window_headroom(
                    UniverseConfig::cxl_small(n).with_hosts(hosts),
                    64 * 1024 * 1024,
                )
                .with_coll_tuning(tuning);
                let results = Universe::run(config, move |comm: &mut Comm| {
                    let me = comm.rank();
                    let payload =
                        |seed: u64| -> Vec<u64> { (0..ELEMS).map(|i| i * 31 + seed).collect() };
                    // Two rounds so the second start replays the cached plan.
                    let mut rounds = Vec::new();
                    for round in 0..2u64 {
                        let mut bc = if me == 0 {
                            payload(round * 97 + 5)
                        } else {
                            vec![0; ELEMS as usize]
                        };
                        comm.bcast_into(0, &mut bc)?;
                        let algo = comm.last_coll_algorithm();
                        assert_eq!(
                            algo.contains("/shm"),
                            expect_shm,
                            "bcast round {round}: unexpected path {algo}"
                        );
                        if expect_shm {
                            assert_eq!(algo, sliced, "bcast round {round}");
                        }
                        let contrib = if me == 0 {
                            payload(round * 97 + 41)
                        } else {
                            vec![0u64; ELEMS as usize]
                        };
                        let mut req = comm.ibcast_into(0, &contrib)?;
                        comm.wait(&mut req)?;
                        let ibc = req.take_values::<u64>()?;
                        rounds.push((bc, ibc));
                    }
                    Ok(rounds)
                })
                .unwrap_or_else(|e| panic!("n={n} hosts={hosts} expect_shm={expect_shm}: {e}"));
                results.into_iter().flat_map(|(o, _)| o).collect()
            };

            let ring = run(force_ring(), false);
            let shm_out = run(shm, true);
            assert_eq!(
                ring, shm_out,
                "n={n} hosts={hosts}: scatter bcast diverged from ring"
            );
            // Sanity on the references themselves.
            for (bc, ibc) in &ring {
                assert_eq!(bc.len(), ELEMS as usize);
                assert_eq!(bc[1], 31 + bc[0]);
                assert_eq!(ibc.len(), ELEMS as usize);
            }
        }
    }
}

/// Oversize payloads must fall back to the ring path mid-sweep — never
/// error — and both paths' work must land in the right counters.
#[test]
fn data_plane_oversize_payloads_fall_back_to_ring_mid_sweep() {
    use cmpi::mpi::{CollTuning, HierarchyMode};
    use common::with_window_headroom;

    // 4 KiB per-rank arena → 1 KiB slots: 64 u64 fit (512 B + 136 B block
    // footprint), 512 u64 (4 KiB) do not.
    let tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        shm_arena_bytes: 4096,
    };
    let config = with_window_headroom(UniverseConfig::cxl_small(4), 64 * 1024 * 1024)
        .with_coll_tuning(tuning);
    let results = Universe::run(config, |comm: &mut Comm| {
        for &count in &[64usize, 512, 64, 512] {
            let mut v = vec![1u64; count];
            comm.allreduce(&mut v, ReduceOp::Sum)?;
            assert!(v.iter().all(|&x| x == comm.size() as u64));
            let algo = comm.last_coll_algorithm();
            if count == 64 {
                assert_eq!(algo, "allreduce/shm");
            } else {
                assert!(
                    algo.starts_with("allreduce/") && !algo.contains("/shm"),
                    "oversize payload should ring-fall-back, got {algo}"
                );
            }
        }
        Ok(())
    })
    .unwrap();
    for (_, report) in &results {
        let dp = &report.data_plane;
        assert_eq!(dp.window_setups, 1, "{dp:?}");
        assert_eq!(dp.window_failures, 0, "{dp:?}");
        assert_eq!(dp.shm_colls, 2, "{dp:?}");
        assert_eq!(dp.ring_colls, 2, "{dp:?}");
        assert!(dp.shm_bytes > 0 && dp.ring_bytes > dp.shm_bytes, "{dp:?}");
    }
}

/// Which path a collective took is read off its plan, not its label: every
/// kind that has a window builder — the barrier and the irregular exchange
/// included — counts on the ring path when its plan has no data-plane op and
/// on the window when it has one. A zero arena creates no window at all:
/// nothing is set up, so nothing fails either.
#[test]
fn data_plane_path_split_counts_every_kind_with_a_window_builder() {
    use common::{force_ring, force_shm, with_window_headroom};

    // An `ibarrier`, an `alltoallv` and an `allreduce` on a duplicate of
    // world: how many of them each path counted on this rank, and the rank's
    // window setups and failures.
    let script = |world: &mut Comm| {
        let mut comm = world.comm_dup()?;
        let before = comm.data_plane_stats();
        let mut barrier = comm.ibarrier()?;
        comm.wait(&mut barrier)?;
        let counts = vec![2usize; comm.size()];
        let send: Vec<u64> = (0..2 * comm.size() as u64).collect();
        comm.alltoallv(&send, &counts, &counts)?;
        comm.allreduce(&mut [1.0f64; 4], ReduceOp::Sum)?;
        let after = comm.data_plane_stats();
        Ok((
            after.shm_colls - before.shm_colls,
            after.ring_colls - before.ring_colls,
            after.window_setups,
            after.window_failures,
        ))
    };
    // World and its duplicate: two windows, or none.
    for (tuning, expect) in [(force_ring(), (0, 3, 0, 0)), (force_shm(), (3, 0, 2, 0))] {
        let config = with_window_headroom(UniverseConfig::cxl_small(4), 64 * 1024 * 1024)
            .with_coll_tuning(tuning);
        for (rank, (split, _)) in Universe::run(config, script).unwrap().iter().enumerate() {
            assert_eq!(
                *split, expect,
                "rank {rank}: (shm, ring) colls, window setups and failures"
            );
        }
    }
}

/// When the pool cannot hold the window (stock `cxl_small` headroom is 1 MiB,
/// the default per-rank arena is 2 MiB), creation fails gracefully: the
/// failure is counted, every collective runs on the ring path, and nothing
/// errors.
#[test]
fn data_plane_window_creation_failure_falls_back_to_ring() {
    use cmpi::mpi::{CollTuning, HierarchyMode};

    let tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        ..CollTuning::default()
    };
    let config = UniverseConfig::cxl_small(4).with_coll_tuning(tuning);
    let results = Universe::run(config, |comm: &mut Comm| {
        let mut v = vec![comm.rank() as u64; 32];
        comm.allreduce(&mut v, ReduceOp::Sum)?;
        assert!(v.iter().all(|&x| x == 6));
        assert!(!comm.last_coll_algorithm().contains("/shm"));
        let mut b = vec![if comm.rank() == 0 { 7u8 } else { 0 }; 64];
        comm.bcast_into(0, &mut b)?;
        assert!(b.iter().all(|&x| x == 7));
        assert!(!comm.last_coll_algorithm().contains("/shm"));
        Ok(())
    })
    .unwrap();
    for (_, report) in &results {
        let dp = &report.data_plane;
        assert!(dp.window_failures >= 1, "{dp:?}");
        assert_eq!(dp.window_setups, 0, "{dp:?}");
        assert_eq!(dp.shm_colls, 0, "{dp:?}");
        assert!(dp.ring_colls >= 2, "{dp:?}");
    }
}
