//! Every member's plan of a collective, checked together without running it.
//!
//! A [`CollPlan`] is a pure function of its inputs, so the plans all members
//! of a communicator would build can be laid side by side with no threads and
//! no pool. What is checked here is the agreement the data plane rests on:
//! every read a member plans names an exposure some writer plans to publish —
//! the same phase, the same place in the slot, the same [`DpFormat`], bytes it
//! covers — and every exposure fits its slot, or its reader's region of it.
//! A disagreement would not fail a run cleanly: a reader would wait for lines
//! nobody stores, or take bytes from lines stored in another format.

use crate::coll::{
    build_allgather, build_allreduce, build_alltoall, build_alltoallv, build_barrier, build_bcast,
    build_reduce, CommView,
};
use crate::config::{CollTuning, HierarchyMode};
use crate::dataplane::DP_SLOTS;
use crate::group::Group;
use crate::progress::{CollPlan, SchedOp};
use crate::topology::{HostHierarchy, HostTopology};
use crate::transport::{DpCost, DpFormat, DpReaders, DpWindow};
use crate::types::ReduceOp;
use cmpi_fabric::cost::CoherenceMode;
use cmpi_fabric::{CxlContentionModel, CxlCostModel};
use cxl_shm::slots::SLOT_CELL_SIZE;

/// One exposure a plan publishes: `(phase, region_off, len, format)`.
type Published = (u8, usize, usize, DpFormat);

/// Check the plans of one shape: `plans[i]` is member `i`'s. Panics naming
/// `shape` and the member at the first disagreement.
fn check(shape: &str, w: &DpWindow, plans: &[CollPlan]) {
    let published: Vec<Vec<Published>> = plans
        .iter()
        .enumerate()
        .map(|(writer, plan)| {
            let mut out = Vec::new();
            for op in &plan.ops {
                let SchedOp::ExposeRead {
                    phase,
                    pieces: (lo, hi),
                    readers,
                    ..
                } = *op
                else {
                    continue;
                };
                for p in &plan.pieces[lo..hi] {
                    let len = p.end - p.start;
                    let room = match readers {
                        DpReaders::PerPiece { stride } => (p.region_off / stride + 1) * stride,
                        _ => w.slot_bytes,
                    };
                    let what = format!("{shape}: writer {writer}'s exposure at {}", p.region_off);
                    assert!(
                        p.region_off + p.format.footprint(len) <= room,
                        "{what}: {len} B as {:?} overflows {room}",
                        p.format
                    );
                    if p.format == (DpFormat::Stamped { in_row: false }) {
                        assert_eq!(p.region_off % SLOT_CELL_SIZE, 0, "{what}: off its line");
                    }
                    out.push((phase, p.region_off, len, p.format));
                }
            }
            out
        })
        .collect();
    for (reader, plan) in plans.iter().enumerate() {
        for op in &plan.ops {
            let (SchedOp::PullCopy { src, len, .. } | SchedOp::FoldInPlace { src, len, .. }) = *op
            else {
                continue;
            };
            let what = format!(
                "{shape}: member {reader} reads {len} B at {}+{} of member {}, phase {}",
                src.region, src.off, src.writer_idx, src.phase
            );
            let exposure = published[src.writer_idx]
                .iter()
                .find(|&&(phase, region, ..)| (phase, region) == (src.phase, src.region));
            let Some(&(_, _, exposed, format)) = exposure else {
                panic!("{what}: the writer publishes nothing there");
            };
            assert_eq!(format, src.format, "{what}: formats differ");
            assert!(
                src.off + len <= exposed,
                "{what}: past the {exposed} B exposed"
            );
        }
    }
}

/// The window of `n` members on an arena of `arena` bytes per rank.
fn window(n: usize, arena: usize) -> DpWindow {
    DpWindow {
        slot_bytes: arena / DP_SLOTS,
        ranks: n,
        cost: DpCost {
            cost: CxlCostModel::default(),
            contention: CxlContentionModel::default(),
            mode: CoherenceMode::FlushClflushopt,
            pairs: (n / 2).max(1),
        },
    }
}

/// The lengths every builder is checked at on window `w`: empty, one byte,
/// both sides of the flag line's 48 and of the second stamped line's 104,
/// both sides of where stamped lines give way to a slot behind a flag line,
/// and the slot itself.
fn lengths(w: &DpWindow) -> Vec<usize> {
    let slot_from = (49..w.slot_bytes)
        .find(|&len| w.format(len, 0..w.slot_bytes, true) == DpFormat::Slot)
        .unwrap_or(w.slot_bytes);
    vec![
        0,
        1,
        47,
        48,
        49,
        104,
        105,
        slot_from - 1,
        slot_from,
        w.slot_bytes,
    ]
}

/// A builder of one member's plan, given its view and its host hierarchy.
type Build<'a> = &'a dyn Fn(&CommView<'_>, &HostHierarchy) -> CollPlan;

#[test]
fn every_reader_expects_the_format_its_writer_publishes() {
    let tuning = CollTuning {
        hierarchy: HierarchyMode::Off,
        ..CollTuning::default()
    };
    let t = &tuning;
    let sum = ReduceOp::Sum;
    // The default arena and the CI `shm` leg's small-slot one.
    for arena in [CollTuning::default().shm_arena_bytes, 256 * 1024] {
        for n in [2, 3, 5, 8, 33] {
            let group = Group::world(n);
            let w = window(n, arena);
            let dp = Some(w);
            for hosts in [1, 2, 3].into_iter().filter(|&hosts| hosts <= n) {
                let topology = HostTopology::blocked(n, hosts).unwrap();
                let hier: Vec<HostHierarchy> = (0..n)
                    .map(|rank| HostHierarchy::derive(&group, &topology, rank))
                    .collect();
                // Build every member's plan and check them together.
                let run = |what: String, build: Build<'_>| {
                    let plans: Vec<CollPlan> = (0..n)
                        .map(|rank| {
                            let view = CommView {
                                group: &group,
                                ctx: 1,
                                rank,
                            };
                            build(&view, &hier[rank])
                        })
                        .collect();
                    let shape = format!("{what}, n = {n} on {hosts} hosts, {arena} B arena");
                    check(&shape, &w, &plans);
                };
                run("barrier".into(), &|v, h| build_barrier(v, t, Some(h), dp));
                let all = lengths(&w);
                for &len in &all {
                    let count = len / 8;
                    run(format!("allgather of {len} B"), &|v, h| {
                        build_allgather(v, t, Some(h), dp, len)
                    });
                    run(format!("alltoall of {len} B"), &|v, h| {
                        build_alltoall(v, t, Some(h), dp, len / n)
                    });
                    run(format!("allreduce of {len} B"), &|v, h| {
                        build_allreduce::<u64>(v, t, Some(h), dp, count, sum)
                    });
                    // Every length of the list somewhere in each run.
                    let bytes = |s: usize, d: usize| all[(s + 2 * d + len) % all.len()];
                    run(format!("alltoallv around {len} B"), &|v, _| {
                        let send: Vec<usize> = (0..n).map(|d| bytes(v.rank, d)).collect();
                        let recv: Vec<usize> = (0..n).map(|s| bytes(s, v.rank)).collect();
                        build_alltoallv(v, dp, &send, &recv, 1, false)
                    });
                    for root in 0..n {
                        run(format!("bcast of {len} B from {root}"), &|v, h| {
                            build_bcast(v, t, Some(h), dp, root, len)
                        });
                        run(format!("reduce of {len} B to {root}"), &|v, h| {
                            build_reduce::<u64>(v, t, Some(h), dp, root, count, sum)
                        });
                    }
                }
            }
        }
    }
}
